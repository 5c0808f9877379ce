//! A recursive-descent *item* parser on top of the lexer.
//!
//! The interprocedural rules need more than a token stream: which
//! function a token belongs to, what that function's signature promises
//! (`Result`/`Option` return), which attributes it carries, and which
//! other functions it calls. This module recovers exactly that — and
//! deliberately nothing more. It is not a Rust parser: expressions are
//! never built into trees, types are kept as token spans, and anything
//! it does not recognise it skips. The recovered shape:
//!
//! * module nesting (`mod name { ... }`) for qualified display names;
//! * `impl Type` / `impl Trait for Type` / `trait Name` owners, so
//!   `Type::method` calls can be narrowed to the right candidates;
//! * `fn` items: name, owner, attributes (notably
//!   `#[doc(alias = "tsda::hot")]`), whether the declared return type
//!   is `Result<..>`/`Option<..>`, and the body's token range;
//! * per body: call expressions (free `f(..)`, qualified
//!   `Type::f(..)`, method `.f(..)`, all with optional turbofish),
//!   panic sites (`.unwrap()`/`.expect()`, `panic!`-family macros,
//!   string-keyed indexing), and `?` propagation count.
//!
//! `macro_rules!` bodies are skipped whole: their `fn $name` fragments
//! have no concrete names until expansion, which the analyzer never
//! performs. Functions generated by local macros (the GEMM kernels) are
//! therefore invisible to the call graph — calls *to* them simply
//! resolve to no candidates, which fails safe for every rule here. (P1
//! still scans those bodies: it runs the same panic-site scan over
//! whole files.)

use crate::lexer::{
    closes_angle, find_punct, find_top_level, match_delim, skip_angle, Tok, TokKind,
};
use crate::rules::{panic_sites, PanicSite};
use crate::workspace::SourceFile;

/// Keywords that look like `ident (` call heads but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "move", "in",
    "as", "let", "fn", "where", "unsafe", "ref", "mut", "dyn", "impl", "pub", "box", "await",
    "yield", "static", "const",
];

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// `Type` in `Type::name(..)` / nearest preceding path segment;
    /// `None` for free and method calls.
    pub qualifier: Option<String>,
    /// True for `.name(..)` method-call syntax.
    pub is_method: bool,
    /// Call carries a turbofish (`f::<T>(..)` / `.parse::<f64>()`).
    /// Only a generic function can be invoked this way, which lets the
    /// call graph skip non-generic same-name candidates.
    pub has_turbofish: bool,
    /// 1-based source line of the callee token.
    pub line: u32,
    /// Token index of the callee ident (into the file's token stream).
    pub tok: usize,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Crate directory name the function lives in.
    pub crate_name: String,
    /// Workspace-relative file path.
    pub rel_path: String,
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` owner type name, when inside one.
    pub owner: Option<String>,
    /// Trait name in `impl Trait for Type` owners (`None` for inherent
    /// impls, trait declarations, and free fns).
    pub impl_trait: Option<String>,
    /// The owner is a `trait` declaration: the fn is a trait method
    /// declaration or a default method body.
    pub owner_is_trait: bool,
    /// Module path inside the file (`a::b`), empty at file top level.
    pub module_path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared return type starts with `Result`.
    pub returns_result: bool,
    /// Declared return type starts with `Option`.
    pub returns_option: bool,
    /// First parameter is a `self` receiver — only these are callable
    /// with `.name(..)` method syntax.
    pub has_self: bool,
    /// Named non-receiver parameters as (binding, type token span).
    pub params: Vec<(String, std::ops::Range<usize>)>,
    /// Names of `&mut`-reference parameters — caller-provided
    /// out-params an allocation may legitimately flow into.
    pub mut_params: Vec<String>,
    /// Names of parameters whose declared type names a `Scratch` type
    /// (ident ending in `Scratch`), by value or reference.
    pub scratch_params: Vec<String>,
    /// Declares generic parameters (`fn name<...>`), so a turbofish
    /// call could target it.
    pub is_generic: bool,
    /// Carries `#[doc(alias = "tsda::hot")]`.
    pub is_hot: bool,
    /// Token range of the body *between* the braces (empty for
    /// body-less trait methods and extern declarations).
    pub body: std::ops::Range<usize>,
    /// Whole function sits in test scope (`#[cfg(test)]` or test file).
    pub in_test: bool,
    /// Calls made by the body, in source order.
    pub calls: Vec<Call>,
    /// Panic sites in the body, in source order.
    pub panics: Vec<PanicSite>,
}

impl FnDef {
    /// Display name: `crate::module::Owner::name`.
    pub fn qual_name(&self) -> String {
        let mut parts: Vec<&str> = vec![self.crate_name.as_str()];
        if !self.module_path.is_empty() {
            parts.push(self.module_path.as_str());
        }
        if let Some(owner) = &self.owner {
            parts.push(owner.as_str());
        }
        parts.push(self.name.as_str());
        parts.join("::")
    }

    /// Short display name: `crate::name` (how R1 roots are configured).
    pub fn root_key(&self) -> String {
        format!("{}::{}", self.crate_name, self.name)
    }
}

/// Parse every function item in `file`.
pub fn parse_fns(file: &SourceFile) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut ctx = Ctx { file, fns: &mut out };
    parse_items(&mut ctx, 0, file.toks.len(), &[], None);
    out
}

struct Ctx<'a> {
    file: &'a SourceFile,
    fns: &'a mut Vec<FnDef>,
}

/// The enclosing `impl`/`trait` context threaded through `parse_items`.
#[derive(Clone)]
struct OwnerCtx {
    /// Owner type name (`Type` in `impl .. Type`, `Name` in `trait Name`).
    name: String,
    /// The owner is a `trait` declaration.
    is_trait: bool,
    /// Trait name for `impl Trait for Type` headers.
    of_trait: Option<String>,
}

/// Walk tokens `[start, end)` collecting `fn` items. `modules` is the
/// enclosing module path, `owner` the enclosing impl/trait context.
fn parse_items(
    ctx: &mut Ctx<'_>,
    start: usize,
    end: usize,
    modules: &[String],
    owner: Option<&OwnerCtx>,
) {
    let toks = &ctx.file.toks;
    let mut attrs: Vec<std::ops::Range<usize>> = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // Outer attribute: remember its span for the next item.
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let close = match_delim(toks, i + 1, end, '[', ']');
            attrs.push(i..close);
            i = close;
            continue;
        }
        // Inner attribute `#![...]`: skip, clears nothing.
        if t.is_punct('#')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('['))
        {
            i = match_delim(toks, i + 2, end, '[', ']');
            continue;
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                // Modifiers between an attribute and its item keyword:
                // `#[x] pub const unsafe extern "C" fn ...`.
                "pub" | "const" | "unsafe" | "async" | "extern" | "default" => {
                    // `pub(crate)` / `pub(in path)` visibility scope.
                    if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                        i = match_delim(toks, i + 1, end, '(', ')');
                    } else {
                        i += 1;
                    }
                    continue;
                }
                "macro_rules" => {
                    // `macro_rules! name { ... }` — opaque; see module docs.
                    let open = find_punct(toks, i, end, '{');
                    i = match_delim(toks, open, end, '{', '}');
                    attrs.clear();
                    continue;
                }
                "mod" => {
                    if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        let after = i + 2;
                        if toks.get(after).is_some_and(|n| n.is_punct('{')) {
                            let close = match_delim(toks, after, end, '{', '}');
                            let mut nested = modules.to_vec();
                            nested.push(name.text.clone());
                            parse_items(ctx, after + 1, close.saturating_sub(1), &nested, owner);
                            i = close;
                            attrs.clear();
                            continue;
                        }
                    }
                    // `mod name;` — nothing to do here.
                    i += 1;
                    attrs.clear();
                    continue;
                }
                "impl" | "trait" => {
                    let is_trait = t.text == "trait";
                    let open = find_punct(toks, i, end, '{');
                    if open >= end {
                        i += 1;
                        attrs.clear();
                        continue;
                    }
                    // Some `impl` heads end at `;` (e.g. `impl Trait for Type;`
                    // never in stable Rust, but fail safe on `;` first).
                    if let Some(semi) = (i..open).find(|&j| toks[j].is_punct(';')) {
                        i = semi + 1;
                        attrs.clear();
                        continue;
                    }
                    let header_owner =
                        owner_from_header(toks, i + 1, open, is_trait).map(|(name, of_trait)| {
                            OwnerCtx {
                                name: name.to_string(),
                                is_trait,
                                of_trait: of_trait.map(str::to_string),
                            }
                        });
                    let close = match_delim(toks, open, end, '{', '}');
                    parse_items(
                        ctx,
                        open + 1,
                        close.saturating_sub(1),
                        modules,
                        header_owner.as_ref().or(owner),
                    );
                    i = close;
                    attrs.clear();
                    continue;
                }
                "fn" => {
                    if let Some(next) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        let def = parse_fn(ctx, i, end, next.text.clone(), modules, owner, &attrs);
                        let resume = def.1;
                        let body = def.0.body.clone();
                        ctx.fns.push(def.0);
                        // Items nested inside the body (`fn inner`,
                        // `mod`, local `impl`) are still real items.
                        parse_items(ctx, body.start, body.end, modules, owner);
                        i = resume;
                        attrs.clear();
                        continue;
                    }
                    // `fn(..)` pointer type in some signature: not an item.
                    i += 1;
                    continue;
                }
                _ => {}
            }
        }
        // Any other token: attributes apply only to the immediately
        // following item, so a non-attribute, non-item token between
        // them belongs to something we skip (use/struct/const/...).
        if !t.is_punct('#') {
            if t.is_punct('{') {
                // Walk into unknown braces (e.g. `extern "C" { ... }`)
                // so nested items are still found.
                i += 1;
                attrs.clear();
                continue;
            }
            attrs.clear();
        }
        i += 1;
    }
}

/// The owner of an `impl`/`trait` header spanning `[start, open)`:
/// for `trait Name`, `(Name, None)`; for `impl Trait for Type`,
/// `(Type, Some(Trait))`; for `impl Type`, `(Type, None)`. Generic
/// arguments are skipped.
fn owner_from_header(
    toks: &[Tok],
    start: usize,
    open: usize,
    is_trait: bool,
) -> Option<(&str, Option<&str>)> {
    if is_trait {
        return toks
            .get(start)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text.as_str(), None));
    }
    // Last ident at generic depth 0 before `{` (and after `for`, when
    // present) is the self type; `where` clauses are cut off first. The
    // ident standing when `for` is hit is the implemented trait.
    let mut best: Option<&str> = None;
    let mut of_trait: Option<&str> = None;
    let mut depth = 0usize;
    let mut j = start;
    while j < open {
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if closes_angle(toks, j) {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.kind == TokKind::Ident {
            match t.text.as_str() {
                "where" => break,
                "for" => of_trait = best.take(), // the self type follows
                "dyn" | "mut" | "const" => {}
                name => best = Some(name),
            }
        }
        j += 1;
    }
    best.map(|b| (b, of_trait))
}

/// Parse one `fn` item whose `fn` keyword sits at `i`. Returns the
/// definition and the token index to resume scanning at.
#[allow(clippy::too_many_arguments)]
fn parse_fn(
    ctx: &mut Ctx<'_>,
    i: usize,
    end: usize,
    name: String,
    modules: &[String],
    owner: Option<&OwnerCtx>,
    attrs: &[std::ops::Range<usize>],
) -> (FnDef, usize) {
    let file = ctx.file;
    let toks = &file.toks;
    let line = toks[i].line;
    let mut j = i + 2; // past `fn name`

    let is_generic = toks.get(j).is_some_and(|t| t.is_punct('<'));
    if is_generic {
        j = skip_angle(toks, j, end);
    }
    // Parameter list, split at top-level commas. The receiver, when
    // present, is always the first parameter (covers `self`,
    // `mut self`, `&self`, `&'a mut self`, `self: Arc<Self>`).
    let mut has_self = false;
    let mut params = Vec::new();
    if toks.get(j).is_some_and(|t| t.is_punct('(')) {
        let close = match_delim(toks, j, end, '(', ')');
        let inner_end = close.saturating_sub(1);
        let mut start = j + 1;
        while start < inner_end {
            let stop = find_top_level(toks, start, inner_end, |t| t.is_punct(','));
            if start == j + 1 && toks[start..stop].iter().any(|t| t.is_ident("self")) {
                has_self = true;
            } else if let Some(param) = named_param(toks, start..stop) {
                params.push(param);
            }
            start = stop + 1;
        }
        j = close;
    }
    // Return type: `-> Type` runs to `{`, `;`, or `where`.
    let mut returns_result = false;
    let mut returns_option = false;
    if toks.get(j).is_some_and(|t| t.is_punct('-'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct('>'))
    {
        let ret_start = j + 2;
        j = find_top_level(toks, ret_start, end, |t| {
            t.is_punct('{') || t.is_punct(';') || t.is_ident("where")
        });
        // The *outermost* type constructor decides fallibility; skip
        // reference/pointer sigils to find it.
        let head = (ret_start..j).find(|&k| toks[k].kind == TokKind::Ident);
        if let Some(h) = head {
            // `std::result::Result` and friends: take the last ident of
            // the leading path.
            let mut last = h;
            let mut k = h;
            while k + 2 < j
                && toks[k + 1].is_punct(':')
                && toks[k + 2].is_punct(':')
                && toks.get(k + 3).is_some_and(|t| t.kind == TokKind::Ident)
            {
                k += 3;
                last = k;
            }
            returns_result = toks[last].is_ident("Result");
            returns_option = toks[last].is_ident("Option");
        }
    }
    // `where` clause runs to `{` or `;`.
    if toks.get(j).is_some_and(|t| t.is_ident("where")) {
        while j < end && !(toks[j].is_punct('{') || toks[j].is_punct(';')) {
            j += 1;
        }
    }
    // Body (or `;` for declarations).
    let (body, resume) = if toks.get(j).is_some_and(|t| t.is_punct('{')) {
        let close = match_delim(toks, j, end, '{', '}');
        (j + 1..close.saturating_sub(1), close)
    } else {
        (j..j, (j + 1).min(end))
    };

    let names_where = |typed: &dyn Fn(&[Tok]) -> bool| -> Vec<String> {
        params.iter().filter(|(_, ty)| typed(&toks[ty.clone()])).map(|(n, _)| n.clone()).collect()
    };
    // `&mut T` / `&'a mut T`: a caller-provided out-param.
    let mut_params = names_where(&|ty| {
        let at = if ty.get(1).is_some_and(|t| t.kind == TokKind::Lifetime) { 2 } else { 1 };
        ty.first().is_some_and(|t| t.is_punct('&')) && ty.get(at).is_some_and(|t| t.is_ident("mut"))
    });
    let scratch_params = names_where(&|ty| {
        ty.iter().any(|t| t.kind == TokKind::Ident && t.text.ends_with("Scratch"))
    });
    let is_hot = attrs.iter().any(|a| is_hot_attr(toks, a.clone()));
    let in_test = file.in_test.get(i).copied().unwrap_or(false);
    let calls = extract_calls(toks, body.clone());
    let panics = panic_sites(toks, body.clone());
    (
        FnDef {
            crate_name: file.crate_name.clone(),
            rel_path: file.rel_path.clone(),
            name,
            owner: owner.map(|o| o.name.clone()),
            impl_trait: owner.and_then(|o| o.of_trait.clone()),
            owner_is_trait: owner.is_some_and(|o| o.is_trait),
            module_path: modules.join("::"),
            line,
            returns_result,
            returns_option,
            has_self,
            params,
            mut_params,
            scratch_params,
            is_generic,
            is_hot,
            body,
            in_test,
            calls,
            panics,
        },
        resume,
    )
}

/// A `[mut] name : Type` parameter span as its binding and type span.
/// Destructuring patterns have no single name and yield `None`, which
/// fails safe: an unnamed out-param simply clears nothing.
fn named_param(
    toks: &[Tok],
    span: std::ops::Range<usize>,
) -> Option<(String, std::ops::Range<usize>)> {
    let mut k = span.start;
    if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    let name = toks.get(k).filter(|t| t.kind == TokKind::Ident)?;
    if k + 2 > span.end || !toks[k + 1].is_punct(':') {
        return None;
    }
    Some((name.text.clone(), k + 2..span.end))
}

/// Is the attribute span `#[doc(alias = "tsda::hot")]`?
fn is_hot_attr(toks: &[Tok], span: std::ops::Range<usize>) -> bool {
    let body = &toks[span];
    body.iter().any(|t| t.is_ident("doc"))
        && body.iter().any(|t| t.is_ident("alias"))
        && body.iter().any(|t| t.kind == TokKind::Str && t.text == "tsda::hot")
}

/// Extract call expressions from a body token range.
fn extract_calls(toks: &[Tok], body: std::ops::Range<usize>) -> Vec<Call> {
    let mut calls = Vec::new();
    let end = body.end.min(toks.len());
    let mut i = body.start;
    while i < end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // Macro invocation `name!(..)`: not a function call (panic
        // macros are picked up by `rules::panic_sites`).
        if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            i += 2;
            continue;
        }
        // Optional turbofish between the name and the argument list:
        // `f::<T>(..)` / `.collect::<Vec<_>>()`.
        let mut j = i + 1;
        let mut has_turbofish = false;
        if toks.get(j).is_some_and(|n| n.is_punct(':'))
            && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(j + 2).is_some_and(|n| n.is_punct('<'))
        {
            has_turbofish = true;
            j = skip_angle(toks, j + 2, end);
        }
        if !toks.get(j).is_some_and(|n| n.is_punct('(')) {
            i += 1;
            continue;
        }
        // What precedes the name decides the call form.
        let is_method = i >= 1 && toks[i - 1].is_punct('.');
        let qualifier = if !is_method
            && i >= 2
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && i >= 3
            && toks[i - 3].kind == TokKind::Ident
        {
            Some(toks[i - 3].text.clone())
        } else {
            None
        };
        // A definition (`fn name(`) is not a call; parse_items recurses
        // into bodies for nested fns, so skip the head here.
        if i >= 1 && toks[i - 1].is_ident("fn") {
            i = j;
            continue;
        }
        calls.push(Call {
            name: t.text.clone(),
            qualifier,
            is_method,
            has_turbofish,
            line: t.line,
            tok: i,
        });
        i = j; // continue inside the argument list for nested calls
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::FileKind;

    fn parse(src: &str) -> Vec<FnDef> {
        parse_fns(&SourceFile::new("x", "crates/x/src/lib.rs", FileKind::Lib, src))
    }

    #[test]
    fn signatures_owners_and_modules() {
        let fns = parse(
            "pub fn free(a: u8) -> Result<u8, E> { Ok(a) }\n\
             mod inner {\n\
                 impl Widget {\n\
                     fn method(&self) -> Option<u8> { None }\n\
                 }\n\
                 impl Display for Widget {\n\
                     fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result { Ok(()) }\n\
                 }\n\
             }\n\
             trait Runs {\n\
                 fn go(&self);\n\
                 fn default_impl(&self) -> usize { 1 }\n\
             }\n",
        );
        let names: Vec<_> = fns.iter().map(FnDef::qual_name).collect();
        assert_eq!(
            names,
            vec![
                "x::free",
                "x::inner::Widget::method",
                "x::inner::Widget::fmt",
                "x::Runs::go",
                "x::Runs::default_impl",
            ],
            "{names:?}"
        );
        assert!(fns[0].returns_result);
        assert!(!fns[0].returns_option);
        assert!(fns[1].returns_option);
        // `fmt::Result` path: last segment wins.
        assert!(fns[2].returns_result);
        // Body-less trait method.
        assert!(fns[3].body.is_empty());
        assert!(!fns[4].body.is_empty());
    }

    #[test]
    fn generic_signatures_with_nested_generics_parse() {
        let fns = parse(
            "fn gen<T: Into<Vec<Vec<u8>>>>(x: T) -> Result<Vec<Vec<u8>>, Box<dyn Error>> {\n\
                 helper(x)\n\
             }\n\
             fn after() {}\n",
        );
        assert_eq!(fns.len(), 2, "{fns:?}");
        assert!(fns[0].returns_result);
        assert_eq!(fns[0].calls.len(), 1);
        assert_eq!(fns[0].calls[0].name, "helper");
        assert_eq!(fns[1].name, "after");
    }

    #[test]
    fn calls_free_qualified_method_and_turbofish() {
        let fns = parse(
            "fn f() {\n\
                 helper(1);\n\
                 Widget::build(2);\n\
                 thing.update(3);\n\
                 parse::<f64>(s);\n\
                 let v = items.iter().map(g).collect::<Vec<_>>();\n\
                 not_a_call! { stuff() }\n\
             }\n",
        );
        let calls = &fns[0].calls;
        let by_name = |n: &str| calls.iter().find(|c| c.name == n);
        assert!(by_name("helper").is_some_and(|c| !c.is_method && c.qualifier.is_none()));
        assert!(by_name("build").is_some_and(|c| c.qualifier.as_deref() == Some("Widget")));
        assert!(by_name("update").is_some_and(|c| c.is_method));
        assert!(by_name("parse").is_some_and(|c| !c.is_method));
        assert!(by_name("collect").is_some_and(|c| c.is_method));
        // The macro body's `stuff()` IS picked up (macros expand to real
        // code), but `not_a_call` itself is not a call.
        assert!(by_name("not_a_call").is_none());
        assert!(by_name("stuff").is_some());
    }

    #[test]
    fn panic_sites_and_question_marks() {
        let fns = parse(
            "fn f(o: Option<u8>, m: &Map) -> u8 {\n\
                 let a = o.unwrap();\n\
                 let b = m[\"key\"];\n\
                 if a > 9 { panic!(\"too big\") }\n\
                 a + b\n\
             }\n",
        );
        let whats: Vec<_> = fns[0].panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec![".unwrap()", "[\"key\"] indexing", "panic!"], "{whats:?}");
    }

    #[test]
    fn hot_attribute_is_detected() {
        let fns = parse(
            "#[doc(alias = \"tsda::hot\")]\n\
             pub fn kernel(x: &mut [f64]) { x[0] += 1.0; }\n\
             #[doc(alias = \"something_else\")]\n\
             pub fn cold() {}\n\
             #[inline]\n\
             pub fn plain() {}\n",
        );
        assert!(fns[0].is_hot);
        assert!(!fns[1].is_hot);
        assert!(!fns[2].is_hot);
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let fns = parse(
            "macro_rules! gen {\n\
                 ($name:ident) => {\n\
                     pub fn $name() { danger.unwrap(); }\n\
                 };\n\
             }\n\
             pub fn real() {}\n",
        );
        assert_eq!(fns.len(), 1, "{fns:?}");
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn nested_fns_and_closures_stay_attached() {
        let fns = parse(
            "fn outer() -> usize {\n\
                 fn inner(v: u8) -> u8 { v }\n\
                 let f = |x: usize| helper(x);\n\
                 f(inner(1) as usize)\n\
             }\n",
        );
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"outer"), "{names:?}");
        assert!(names.contains(&"inner"), "{names:?}");
        // The closure's call belongs to outer's body.
        let outer = fns.iter().find(|f| f.name == "outer").expect("outer parsed");
        assert!(outer.calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let fns = parse("fn takes(cb: fn(usize) -> usize) -> usize { cb(1) }\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "takes");
        assert!(fns[0].calls.iter().any(|c| c.name == "cb"));
    }

    #[test]
    fn impl_trait_owner_kind_and_param_records() {
        let fns = parse(
            "trait Runs { fn go(&self); }\n\
             impl Runs for Widget {\n\
                 fn go(&self) {}\n\
             }\n\
             impl Widget {\n\
                 fn fill(&self, out: &mut Vec<u8>, scratch: &mut AugScratch, n: usize) {}\n\
             }\n\
             fn free(buf: &'a mut [f64], s: Scratch) {}\n",
        );
        assert!(fns[0].owner_is_trait);
        assert_eq!(fns[0].owner.as_deref(), Some("Runs"));
        assert!(fns[0].impl_trait.is_none());
        assert_eq!(fns[1].owner.as_deref(), Some("Widget"));
        assert_eq!(fns[1].impl_trait.as_deref(), Some("Runs"));
        assert!(!fns[1].owner_is_trait);
        assert!(fns[2].impl_trait.is_none());
        assert!(fns[2].has_self);
        assert_eq!(fns[2].mut_params, vec!["out", "scratch"]);
        assert_eq!(fns[2].scratch_params, vec!["scratch"]);
        assert_eq!(fns[3].mut_params, vec!["buf"]);
        assert_eq!(fns[3].scratch_params, vec!["s"]);
    }

    #[test]
    fn an_arrow_in_impl_generics_closes_no_angle() {
        // `fn() -> T` inside the trait's generics: the `>` of `->` must
        // not end `Handler<..>` early and make `T` the trait name.
        let fns = parse(
            "impl<T> Handler<fn() -> T> for Pool<T> { fn go(&self) {} }\n\
             fn takes<F: Fn(u8) -> u8>(f: F, out: &mut Vec<u8>) { out.push(f(1)); }\n",
        );
        assert_eq!(fns[0].owner.as_deref(), Some("Pool"));
        assert_eq!(fns[0].impl_trait.as_deref(), Some("Handler"));
        assert!(fns[1].is_generic);
        assert_eq!(fns[1].mut_params, vec!["out"]);
        assert!(fns[1].calls.iter().any(|c| c.name == "push"), "{:?}", fns[1].calls);
    }

    #[test]
    fn root_key_is_crate_and_bare_name() {
        let fns = parse("impl Server { pub fn handle(&self) {} }\n");
        assert_eq!(fns[0].root_key(), "x::handle");
        assert_eq!(fns[0].qual_name(), "x::Server::handle");
    }
}

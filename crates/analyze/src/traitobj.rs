//! Trait-object call resolution: which concrete impls can a
//! `dyn Trait` method call actually reach?
//!
//! The conservative call graph resolves `.method(..)` to every
//! workspace method of that name — which drags whole subsystems into a
//! hot-path audit the moment one pipeline dispatches through
//! `Box<dyn SeriesTransform>`. This module recovers a *sound*
//! narrowing from three workspace-wide facts; the narrowing only fires
//! when all three agree, and every ambiguity falls back to the
//! conservative answer:
//!
//! * **dyn slots** — bindings declared with a `dyn Trait` type in an
//!   unambiguous *type position*: struct fields, `let` ascriptions,
//!   and fn parameters. `choose: Vec<Box<dyn SeriesTransform + Send>>`
//!   records slot `choose → SeriesTransform`. A name declared against
//!   two different traits anywhere in the workspace is dropped — the
//!   receiver ident alone cannot tell the declarations apart.
//! * **trait surface** — the methods a trait declares and the types
//!   implementing it (`impl Trait for Type`). A slot call narrows only
//!   when the trait actually declares the method; `choose.len()` (a
//!   std call on the *container* holding the objects) is untouched.
//! * **coercion census (RTA-lite)** — the concrete types observed
//!   boxed in non-test code. `Box::new(Type ...)` with a literal type
//!   head, anywhere in a non-test token region, admits `Type` for
//!   every trait it implements (boxing without coercing merely
//!   over-admits within the implementor set — harmless). A box whose
//!   source type the tokens cannot name (`Box::new(var)`, an `as`-cast
//!   to a dyn type) poisons every trait the surrounding *file* names
//!   as `dyn Trait`, and a poisoned trait falls back to "every
//!   implementor". Test-only coercions are ignored on purpose:
//!   reachability rules audit production roots, and a trait object
//!   built only by tests never flows into one. The census assumes an
//!   opaque coercion happens in a file that names the dyn type
//!   somewhere — true of every coercion in this workspace, and cheap
//!   to keep true.
//!
//! Residual imprecision is conservative by construction — a trait with
//! no parsed implementors (e.g. macro-generated impls the item parser
//! cannot see) never narrows at all.

use crate::lexer::{find_top_level, match_delim, skip_angle, Tok, TokKind};
use crate::parser::{Call, FnDef};
use crate::workspace::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Workspace-wide trait-object facts (see module docs).
#[derive(Debug, Default)]
pub struct TraitObjects {
    /// Unambiguous `dyn Trait`-typed binding names → trait.
    pub slots: BTreeMap<String, String>,
    /// Trait → method names it declares (including default methods).
    pub methods: BTreeMap<String, BTreeSet<String>>,
    /// Trait → every implementing type name.
    pub impls: BTreeMap<String, BTreeSet<String>>,
    /// Trait → owner type names a narrowed candidate may have: the
    /// coercion census when it stayed sound, else all implementors.
    pub admitted: BTreeMap<String, BTreeSet<String>>,
}

impl TraitObjects {
    /// Build the facts from the same files/fns the call graph uses.
    pub fn collect(files: &[SourceFile], fns: &[FnDef]) -> TraitObjects {
        let mut t = TraitObjects::default();
        for f in fns {
            if f.owner_is_trait {
                if let Some(owner) = &f.owner {
                    t.methods.entry(owner.clone()).or_default().insert(f.name.clone());
                }
            }
            if let (Some(tr), Some(owner)) = (&f.impl_trait, &f.owner) {
                t.impls.entry(tr.clone()).or_default().insert(owner.clone());
            }
        }
        let traits: BTreeSet<&str> =
            t.methods.keys().chain(t.impls.keys()).map(String::as_str).collect();

        // dyn slots, with conflicting names dropped.
        let mut poisoned_slots: BTreeSet<String> = BTreeSet::new();
        let add_slot = |slots: &mut BTreeMap<String, String>,
                            poisoned: &mut BTreeSet<String>,
                            name: &str,
                            tr: &str| {
            match slots.get(name) {
                Some(prev) if prev != tr => {
                    poisoned.insert(name.to_string());
                }
                _ => {
                    slots.insert(name.to_string(), tr.to_string());
                }
            }
        };
        for file in files {
            collect_field_and_let_slots(&file.toks, &traits, &mut |name, tr| {
                add_slot(&mut t.slots, &mut poisoned_slots, name, tr);
            });
        }
        let file_by_path: BTreeMap<&str, &SourceFile> =
            files.iter().map(|s| (s.rel_path.as_str(), s)).collect();
        for f in fns {
            if let Some(file) = file_by_path.get(f.rel_path.as_str()) {
                collect_param_slots(&file.toks, f, &traits, &mut |name, tr| {
                    add_slot(&mut t.slots, &mut poisoned_slots, name, tr);
                });
            }
        }
        for name in &poisoned_slots {
            t.slots.remove(name);
        }

        // Coercion census over non-test token regions, file by file.
        let mut coerced: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut poisoned_traits: BTreeSet<String> = BTreeSet::new();
        for file in files {
            let toks = &file.toks;
            let mentioned: Vec<&str> = traits
                .iter()
                .copied()
                .filter(|tr| mentions_dyn(toks, 0..toks.len(), tr))
                .collect();
            for tr in &mentioned {
                if has_as_cast_to_dyn(toks, &file.in_test, 0..toks.len(), tr) {
                    poisoned_traits.insert((*tr).to_string());
                }
            }
            census_boxed(toks, &file.in_test, &traits, &mentioned, &t.impls, &mut |tr, ty| {
                match ty {
                    Some(ty) => {
                        coerced.entry(tr.to_string()).or_default().insert(ty.to_string());
                    }
                    None => {
                        poisoned_traits.insert(tr.to_string());
                    }
                }
            });
        }
        for tr in &traits {
            let all = t.impls.get(*tr).cloned().unwrap_or_default();
            let admitted = if poisoned_traits.contains(*tr) {
                all
            } else {
                coerced.remove(*tr).unwrap_or_default()
            };
            t.admitted.insert((*tr).to_string(), admitted);
        }
        t
    }

    /// When `call` is a method call on an unambiguous dyn-slot receiver
    /// whose trait declares the method (and has at least one parsed
    /// implementor), the trait and the owner-type names a candidate
    /// must match. `None` = no narrowing, keep the conservative set.
    pub fn narrow(&self, toks: &[Tok], call: &Call) -> Option<(&str, &BTreeSet<String>)> {
        if !call.is_method {
            return None;
        }
        let comps = receiver_components(toks, call.tok);
        let slot = comps.last()?;
        let tr = self.slots.get(slot)?;
        if !self.methods.get(tr).is_some_and(|m| m.contains(&call.name)) {
            return None;
        }
        // A trait whose impls the parser cannot see (macro-generated)
        // must not narrow: an empty implementor set would unsoundly
        // drop every candidate.
        if self.impls.get(tr).is_none_or(BTreeSet::is_empty) {
            return None;
        }
        Some((tr.as_str(), self.admitted.get(tr)?))
    }
}

/// The dotted receiver path of the method call whose callee ident sits
/// at `callee`: `a.b[i].m(..)` → `["a", "b"]`. Index brackets are
/// stripped; a chain fed by a call result or any other shape yields an
/// empty path (unknown receiver).
pub(crate) fn receiver_components(toks: &[Tok], callee: usize) -> Vec<String> {
    let mut comps: Vec<String> = Vec::new();
    if callee < 2 || !toks[callee - 1].is_punct('.') {
        return comps;
    }
    let mut m = callee - 2;
    loop {
        while toks[m].is_punct(']') {
            let Some(open) = rmatch(toks, m, '[', ']') else { return Vec::new() };
            if open == 0 {
                return Vec::new();
            }
            m = open - 1;
        }
        if toks[m].kind != TokKind::Ident {
            return Vec::new();
        }
        comps.push(toks[m].text.clone());
        if m >= 2 && toks[m - 1].is_punct('.') {
            m -= 2;
        } else {
            break;
        }
    }
    comps.reverse();
    comps
}

/// Index of the `open_c` matching the `close_c` at `close`, scanning
/// left.
fn rmatch(toks: &[Tok], close: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        if toks[j].is_punct(close_c) {
            depth += 1;
        } else if toks[j].is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

/// Does `span` contain the token sequence `dyn <tr>`?
fn mentions_dyn(toks: &[Tok], span: std::ops::Range<usize>, tr: &str) -> bool {
    let end = span.end.min(toks.len());
    (span.start..end.saturating_sub(1))
        .any(|i| toks[i].is_ident("dyn") && toks[i + 1].is_ident(tr))
}

/// Is any `dyn <tr>` in `span` the target of an `as` cast? Walking left
/// from `dyn` over type-position tokens (`&`, `<`, box-like idents,
/// `mut`, lifetimes, `(`), hitting `as` means the source expression's
/// type is invisible to the census. Test-region casts are skipped like
/// test-region `Box::new` heads: objects built only by tests cannot
/// reach production roots, so they must not poison the trait.
fn has_as_cast_to_dyn(
    toks: &[Tok],
    in_test: &[bool],
    span: std::ops::Range<usize>,
    tr: &str,
) -> bool {
    let end = span.end.min(toks.len());
    'site: for i in span.start..end.saturating_sub(1) {
        if !(toks[i].is_ident("dyn") && toks[i + 1].is_ident(tr)) {
            continue;
        }
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let mut m = i;
        while m > span.start {
            m -= 1;
            let t = &toks[m];
            let type_pos = t.is_punct('&')
                || t.is_punct('<')
                || t.is_punct('(')
                || t.kind == TokKind::Lifetime
                || t.is_ident("mut")
                || t.is_ident("Box")
                || t.is_ident("Rc")
                || t.is_ident("Arc");
            if t.is_ident("as") {
                return true;
            }
            if !type_pos {
                continue 'site;
            }
        }
    }
    false
}

/// Scan a file's non-test token regions for `Box::new(head ...)`
/// coercion evidence. An uppercase head is admitted for every trait it
/// implements; a head the tokens cannot type (a variable, a call
/// result, a parenthesised expression) poisons every trait this file
/// mentions as `dyn Trait`. Closure heads (`|`/`move`) cannot
/// implement a workspace trait and are skipped.
fn census_boxed(
    toks: &[Tok],
    in_test: &[bool],
    traits: &BTreeSet<&str>,
    mentioned: &[&str],
    impls: &BTreeMap<String, BTreeSet<String>>,
    record: &mut dyn FnMut(&str, Option<&str>),
) {
    for i in 0..toks.len() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !(toks[i].is_ident("Box")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        let Some(head) = toks.get(i + 5) else { continue };
        if head.is_punct('|') || head.is_ident("move") {
            continue;
        }
        let named = head.kind == TokKind::Ident
            && head.text.chars().next().is_some_and(char::is_uppercase);
        if named {
            for tr in traits {
                if impls.get(*tr).is_some_and(|s| s.contains(&head.text)) {
                    record(tr, Some(&head.text));
                }
            }
        } else {
            for tr in mentioned {
                record(tr, None);
            }
        }
    }
}

/// Record struct-field and `let`-ascription dyn slots in one file.
fn collect_field_and_let_slots(
    toks: &[Tok],
    traits: &BTreeSet<&str>,
    record: &mut dyn FnMut(&str, &str),
) {
    let n = toks.len();
    for i in 0..n {
        let t = &toks[i];
        // `struct Name { field: Type, ... }` — brace-struct fields.
        if t.is_ident("struct") {
            if !toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                continue;
            }
            let mut j = i + 2;
            if toks.get(j).is_some_and(|t| t.is_punct('<')) {
                j = skip_angle(toks, j, n);
            }
            // `where` clauses and tuple structs end elsewhere; only a
            // `{` directly after (or after the where clause) is a
            // field block.
            while j < n
                && !(toks[j].is_punct('{') || toks[j].is_punct(';') || toks[j].is_punct('('))
            {
                j += 1;
            }
            if !toks.get(j).is_some_and(|t| t.is_punct('{')) {
                continue;
            }
            let close = match_delim(toks, j, n, '{', '}');
            collect_decl_slots(toks, j + 1..close.saturating_sub(1), traits, record);
            continue;
        }
        // `let [mut] name : Type = ...` ascriptions.
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else { continue };
            if !toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                continue;
            }
            // Type span to the `=` or `;` at bracket depth 0.
            let k = find_top_level(toks, j + 2, n, |t| t.is_punct('=') || t.is_punct(';'));
            if let Some(tr) = dyn_trait_in(toks, j + 2..k, traits) {
                record(&name.text, tr);
            }
        }
    }
}

/// Record `name: Type` declarations in a struct-field block: each field
/// runs from its name to the next top-level `,`.
fn collect_decl_slots(
    toks: &[Tok],
    block: std::ops::Range<usize>,
    traits: &BTreeSet<&str>,
    record: &mut dyn FnMut(&str, &str),
) {
    let end = block.end.min(toks.len());
    let mut i = block.start;
    while i < end {
        let t = &toks[i];
        // Skip visibility and attributes between fields.
        if t.is_ident("pub") {
            if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                i = match_delim(toks, i + 1, end, '(', ')');
            } else {
                i += 1;
            }
            continue;
        }
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            i = match_delim(toks, i + 1, end, '[', ']');
            continue;
        }
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct(':')) {
            // Field type runs to the next `,` at depth 0.
            let k = find_top_level(toks, i + 2, end, |t| t.is_punct(','));
            if let Some(tr) = dyn_trait_in(toks, i + 2..k, traits) {
                record(&t.text, tr);
            }
            i = k + 1;
            continue;
        }
        i += 1;
    }
}

/// Record fn-parameter dyn slots for one parsed fn: `name: &dyn Trait`
/// and `name: Box<dyn Trait>` parameters.
fn collect_param_slots(
    toks: &[Tok],
    f: &FnDef,
    traits: &BTreeSet<&str>,
    record: &mut dyn FnMut(&str, &str),
) {
    for (name, ty) in &f.params {
        if let Some(tr) = dyn_trait_in(toks, ty.clone(), traits) {
            record(name, tr);
        }
    }
}

/// The known trait named by a `dyn Trait` inside a type span, if any.
fn dyn_trait_in<'t>(
    toks: &[Tok],
    span: std::ops::Range<usize>,
    traits: &BTreeSet<&'t str>,
) -> Option<&'t str> {
    let end = span.end.min(toks.len());
    for i in span.start..end.saturating_sub(1) {
        if toks[i].is_ident("dyn") && toks[i + 1].kind == TokKind::Ident {
            if let Some(tr) = traits.get(toks[i + 1].text.as_str()) {
                return Some(tr);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_fns;
    use crate::workspace::{FileKind, SourceFile};

    fn file(crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new(crate_name, format!("crates/{crate_name}/src/lib.rs"), FileKind::Lib, src)
    }

    fn collect(src: &str) -> (TraitObjects, SourceFile) {
        let f = file("a", src);
        let fns = parse_fns(&f);
        let files = vec![f];
        let t = TraitObjects::collect(&files, &fns);
        (t, files.into_iter().next().expect("one file"))
    }

    const PIPELINE: &str = "\
        pub trait Step { fn apply(&self, x: u8) -> u8; }\n\
        pub struct Fast; pub struct Slow; pub struct Cold;\n\
        impl Step for Fast { fn apply(&self, x: u8) -> u8 { x } }\n\
        impl Step for Slow { fn apply(&self, x: u8) -> u8 { x + 1 } }\n\
        impl Step for Cold { fn apply(&self, x: u8) -> u8 { x + 2 } }\n\
        pub struct Stage { pub choose: Vec<Box<dyn Step + Send>> }\n\
        pub fn build() -> Stage {\n\
            let mut choose: Vec<Box<dyn Step + Send>> = Vec::new();\n\
            choose.push(Box::new(Fast));\n\
            choose.push(Box::new(Slow));\n\
            Stage { choose }\n\
        }\n\
        pub fn run(s: &Stage, pick: usize) -> u8 { s.choose[pick].apply(3) }\n";

    #[test]
    fn slots_traits_and_census() {
        let (t, _) = collect(PIPELINE);
        assert_eq!(t.slots.get("choose").map(String::as_str), Some("Step"));
        assert!(t.methods.get("Step").is_some_and(|m| m.contains("apply")));
        let impls = t.impls.get("Step").expect("impls");
        assert_eq!(impls.len(), 3);
        // Census admits only the types actually boxed in non-test code.
        let admitted = t.admitted.get("Step").expect("admitted");
        assert!(admitted.contains("Fast") && admitted.contains("Slow"));
        assert!(!admitted.contains("Cold"));
    }

    #[test]
    fn narrow_fires_on_indexed_slot_receiver_only() {
        let (t, f) = collect(PIPELINE);
        let fns = parse_fns(&f);
        let run = fns.iter().find(|d| d.name == "run").expect("run");
        let call = run.calls.iter().find(|c| c.name == "apply").expect("apply call");
        let (tr, admitted) = t.narrow(&f.toks, call).expect("narrowed");
        assert_eq!(tr, "Step");
        assert_eq!(admitted.len(), 2);
        // `choose.push(..)` is a container call the trait does not
        // declare: no narrowing.
        let build = fns.iter().find(|d| d.name == "build").expect("build");
        let push = build.calls.iter().find(|c| c.name == "push").expect("push call");
        assert!(t.narrow(&f.toks, push).is_none());
    }

    #[test]
    fn opaque_coercions_poison_the_census() {
        let (t, _) = collect(
            "pub trait Step { fn apply(&self); }\n\
             pub struct Fast; pub struct Slow;\n\
             impl Step for Fast { fn apply(&self) {} }\n\
             impl Step for Slow { fn apply(&self) {} }\n\
             pub fn build(x: Fast) -> Box<dyn Step> { Box::new(x) }\n",
        );
        // `Box::new(x)` has no literal type head: all impls admitted.
        assert_eq!(t.admitted.get("Step").map(BTreeSet::len), Some(2));
    }

    #[test]
    fn as_casts_poison_the_census() {
        let (t, _) = collect(
            "pub trait Step { fn apply(&self); }\n\
             pub struct Fast; pub struct Slow;\n\
             impl Step for Fast { fn apply(&self) {} }\n\
             impl Step for Slow { fn apply(&self) {} }\n\
             pub fn build() -> Box<dyn Step> { Box::new(Fast) as Box<dyn Step> }\n",
        );
        assert_eq!(t.admitted.get("Step").map(BTreeSet::len), Some(2));
    }

    #[test]
    fn test_only_coercions_are_invisible() {
        let mut f = file(
            "a",
            "pub trait Step { fn apply(&self); }\n\
             pub struct Fast; pub struct Slow;\n\
             impl Step for Fast { fn apply(&self) {} }\n\
             impl Step for Slow { fn apply(&self) {} }\n\
             pub fn prod(s: &dyn Step) { s.apply() }\n\
             fn coerce() -> Box<dyn Step> { Box::new(Slow) }\n",
        );
        // Mark the `coerce` item's tokens as a test region, as the
        // workspace loader does for `#[cfg(test)]` code.
        let at = f.toks.iter().position(|t| t.is_ident("coerce")).expect("coerce fn");
        for flag in &mut f.in_test[at - 1..] {
            *flag = true;
        }
        let fns = parse_fns(&f);
        let files = vec![f];
        let t = TraitObjects::collect(&files, &fns);
        assert_eq!(t.admitted.get("Step").map(BTreeSet::len), Some(0));
    }

    #[test]
    fn conflicting_slot_names_are_dropped() {
        let (t, _) = collect(
            "pub trait A { fn go(&self); }\n\
             pub trait B { fn go(&self); }\n\
             pub struct X; impl A for X { fn go(&self) {} }\n\
             pub struct Y; impl B for Y { fn go(&self) {} }\n\
             pub struct S1 { item: Box<dyn A> }\n\
             pub struct S2 { item: Box<dyn B> }\n",
        );
        assert!(!t.slots.contains_key("item"));
    }

    #[test]
    fn receiver_components_shapes() {
        let toks = lex("a.b[i].m(1); (x + y).m(2); f().m(3); self.s.buf.push(4);");
        let find = |name: &str| {
            toks.iter().position(|t| t.is_ident(name)).expect("callee present")
        };
        assert_eq!(receiver_components(&toks, find("m")), vec!["a", "b"]);
        let all_m: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("m"))
            .map(|(i, _)| i)
            .collect();
        assert!(receiver_components(&toks, all_m[1]).is_empty());
        assert!(receiver_components(&toks, all_m[2]).is_empty());
        assert_eq!(receiver_components(&toks, find("push")), vec!["self", "s", "buf"]);
    }
}

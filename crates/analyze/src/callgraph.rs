//! Workspace-wide call graph over the parsed function items.
//!
//! Resolution is *name-based and conservative*: the lexer-level parser
//! has no type information, so a call edge is drawn to **every**
//! workspace function the callee name could plausibly mean. For
//! interprocedural safety rules this is the correct direction to be
//! wrong in — an over-approximated graph can only report a panic as
//! reachable when it might not be, never miss one that is.
//!
//! Candidate narrowing, in order:
//!
//! * crate dependency closure — a call in crate A never resolves into
//!   a crate A does not (transitively) depend on; Rust could not link
//!   such a call, so dropping it loses nothing.
//! * turbofish calls (`f::<T>(..)`) — only generic functions.
//! * `Type::method(..)` — only functions whose `impl`/`trait` owner is
//!   `Type`; `Self::method(..)` — only the calling fn's own owner.
//!   A qualifier naming a well-known std container/primitive
//!   (`Vec::new`, `Box::new`, `String::from`, ...) resolves to no
//!   workspace function at all — without this, every `Vec::new()`
//!   in the tree would edge into every workspace fn named `new`.
//!   Other non-owner qualifiers (module paths, generic params) fall
//!   back to all `method` definitions, e.g. `f64::from_bits`.
//! * `.method(..)` — every workspace function named `method` that has
//!   an owner *and* a `self` receiver (method-call syntax can invoke
//!   neither a free fn nor a receiver-less associated fn).
//! * trait-object receivers — a method call whose receiver is an
//!   unambiguous `dyn Trait`-typed slot (struct field, `let`
//!   ascription, or fn param) resolves only to implementors of that
//!   trait admitted by the workspace coercion census, plus the trait's
//!   own default methods (see [`crate::traitobj`]).
//! * container-local receivers — a method call whose receiver is a
//!   local provably bound to a std container in every binding
//!   (`let mut dims = Vec::new(); ... dims.push(x)`), or a literal,
//!   cannot invoke a workspace method; such calls produce no edges
//!   (see [`crate::dataflow::container_locals`]).
//! * `free(..)` — every workspace function named `free`; same-crate
//!   definitions are preferred when any exist, since cross-crate calls
//!   in this workspace are written with an explicit path.
//!
//! Calls that resolve to no workspace function (std, vendored deps,
//! macro-generated kernels) produce no edges; the *allocation* and
//! *panic* properties of well-known std names are judged at the call
//! site by the rules themselves.

use crate::lexer::TokKind;
use crate::parser::{parse_fns, FnDef};
use crate::workspace::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Stable function id: index into [`CallGraph::fns`].
pub type FnId = usize;

/// Std types whose associated-fn calls (`Vec::new`, `Box::new`, ...)
/// never land in workspace code. Only consulted when the qualifier is
/// not a workspace owner, so a workspace type shadowing one of these
/// names still resolves normally.
const STD_QUALIFIERS: &[&str] = &[
    "Arc", "AtomicBool", "AtomicU32", "AtomicU64", "AtomicUsize", "BTreeMap", "BTreeSet",
    "BinaryHeap", "Box", "Cell", "Condvar", "Cow", "Duration", "HashMap", "HashSet", "Instant",
    "LazyLock", "Mutex", "OnceCell", "OnceLock", "Option", "OsString", "Path", "PathBuf", "Rc",
    "RefCell", "Result", "RwLock", "String", "SystemTime", "TcpListener", "TcpStream", "Vec",
    "VecDeque",
];

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee function.
    pub to: FnId,
    /// Index into the caller's `calls` vec (for line/site reporting).
    pub call_idx: usize,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All parsed functions, in deterministic (path, line) order.
    pub fns: Vec<FnDef>,
    /// Outgoing resolved edges per function.
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Build the graph from already-loaded workspace files, with no
    /// crate-dependency information (every cross-crate edge allowed).
    pub fn build(files: &[SourceFile]) -> CallGraph {
        Self::build_with_deps(files, &BTreeMap::new())
    }

    /// Build the graph with crate-dependency narrowing: a call in
    /// crate A only resolves into crate B when B is in A's transitive
    /// dependency closure (see [`crate::workspace::crate_dep_closure`]).
    /// This is not a heuristic — Rust cannot link a call into a crate
    /// the caller does not depend on. Crates absent from `deps` are
    /// not narrowed.
    pub fn build_with_deps(
        files: &[SourceFile],
        deps: &BTreeMap<String, BTreeSet<String>>,
    ) -> CallGraph {
        let mut fns: Vec<FnDef> = files.iter().flat_map(parse_fns).collect();
        fns.sort_by(|a, b| (&a.rel_path, a.line, &a.name).cmp(&(&b.rel_path, b.line, &b.name)));

        // Name → candidate ids; owner narrowing happens per call site.
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(id);
        }
        let owner_names: std::collections::BTreeSet<&str> =
            fns.iter().filter_map(|f| f.owner.as_deref()).collect();
        let file_by_path: BTreeMap<&str, &SourceFile> =
            files.iter().map(|s| (s.rel_path.as_str(), s)).collect();
        let container_locals: Vec<BTreeSet<String>> = fns
            .iter()
            .map(|f| match file_by_path.get(f.rel_path.as_str()) {
                Some(file) => crate::dataflow::container_locals(&file.toks, f.body.clone()),
                None => BTreeSet::new(),
            })
            .collect();
        let tobj = crate::traitobj::TraitObjects::collect(files, &fns);

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for (id, f) in fns.iter().enumerate() {
            let reachable_crates = deps.get(f.crate_name.as_str());
            let file = file_by_path.get(f.rel_path.as_str());
            for (call_idx, call) in f.calls.iter().enumerate() {
                let Some(candidates) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                // A `.method(..)` on a receiver pinned to a std
                // container (or a literal) cannot hit workspace code.
                if call.is_method && call.tok >= 2 {
                    let recv = file
                        .filter(|s| s.toks[call.tok - 1].is_punct('.'))
                        .map(|s| &s.toks[call.tok - 2]);
                    if let Some(recv) = recv {
                        let container = recv.kind == TokKind::Ident
                            && container_locals[id].contains(&recv.text);
                        if container || matches!(recv.kind, TokKind::Str | TokKind::Num) {
                            continue;
                        }
                    }
                }
                // Hard filters first — each one rules candidates *out*
                // on grounds the language guarantees, never on type
                // inference the parser cannot do:
                //  * dependency closure: A cannot call into a crate it
                //    does not depend on;
                //  * a turbofish call (`f::<T>(..)`) only invokes a
                //    generic function;
                //  * method syntax (`.f(..)`) only invokes a function
                //    with a `self` receiver.
                let candidates: Vec<FnId> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| {
                        fns[c].crate_name == f.crate_name
                            || reachable_crates
                                .is_none_or(|r| r.contains(fns[c].crate_name.as_str()))
                    })
                    .filter(|&c| !call.has_turbofish || fns[c].is_generic)
                    .filter(|&c| !call.is_method || fns[c].has_self)
                    .collect();
                let narrowed: Vec<FnId> = if let Some(q) = &call.qualifier {
                    if q == "Self" {
                        candidates
                            .iter()
                            .copied()
                            .filter(|&c| fns[c].owner.is_some() && fns[c].owner == f.owner)
                            .collect()
                    } else if owner_names.contains(q.as_str()) {
                        candidates
                            .iter()
                            .copied()
                            .filter(|&c| fns[c].owner.as_deref() == Some(q.as_str()))
                            .collect()
                    } else if STD_QUALIFIERS.contains(&q.as_str()) {
                        // `Vec::new(..)` etc. can only be the std type:
                        // the workspace defines no owner by that name.
                        Vec::new()
                    } else {
                        // `f64::from_bits`-style std qualifier, or a
                        // module path: keep every candidate.
                        candidates
                    }
                } else if call.is_method {
                    // `self.m(..)` in an impl of a concrete type that
                    // defines a `self`-receiver `m`: only that type's
                    // `m`s. (A trait default body keeps every
                    // candidate: its `self` is any implementor.)
                    let on_self = file.is_some_and(|s| {
                        call.tok >= 2
                            && s.toks[call.tok - 1].is_punct('.')
                            && s.toks[call.tok - 2].is_ident("self")
                    });
                    let own: Vec<FnId> = if on_self && f.owner.is_some() && !f.owner_is_trait {
                        candidates.iter().copied().filter(|&c| fns[c].owner == f.owner).collect()
                    } else {
                        Vec::new()
                    };
                    if !own.is_empty() {
                        own
                    } else {
                        match file.and_then(|s| tobj.narrow(&s.toks, call)) {
                            // `dyn Trait` slot receiver: only admitted
                            // implementors and the trait's default methods.
                            Some((tr, admitted)) => candidates
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    let owner = fns[c].owner.as_deref();
                                    (fns[c].impl_trait.as_deref() == Some(tr)
                                        && owner.is_some_and(|o| admitted.contains(o)))
                                        || (fns[c].owner_is_trait && owner == Some(tr))
                                })
                                .collect(),
                            None => candidates
                                .iter()
                                .copied()
                                .filter(|&c| fns[c].owner.is_some())
                                .collect(),
                        }
                    }
                } else {
                    let same_crate: Vec<FnId> = candidates
                        .iter()
                        .copied()
                        .filter(|&c| fns[c].crate_name == f.crate_name)
                        .collect();
                    if same_crate.is_empty() { candidates } else { same_crate }
                };
                for to in narrowed {
                    edges[id].push(Edge { to, call_idx });
                }
            }
        }
        CallGraph { fns, edges }
    }

    /// Ids of functions matching a `crate::name` root key.
    pub fn roots_matching(&self, key: &str) -> Vec<FnId> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.root_key() == key)
            .map(|(id, _)| id)
            .collect()
    }

    /// BFS over the graph from `roots`, returning for every reached
    /// function the id of the edge-parent it was first reached through
    /// (roots map to `None`). Cycles are handled by the visited set.
    pub fn reach_with_parents(&self, roots: &[FnId]) -> BTreeMap<FnId, Option<(FnId, usize)>> {
        let mut parent: BTreeMap<FnId, Option<(FnId, usize)>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(r) {
                v.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(at) = queue.pop_front() {
            for e in &self.edges[at] {
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(e.to) {
                    v.insert(Some((at, e.call_idx)));
                    queue.push_back(e.to);
                }
            }
        }
        parent
    }

    /// The call chain `root -> ... -> target` recovered from a
    /// `reach_with_parents` map, as `(fn_id, line-of-call-into-next)`
    /// display strings.
    pub fn chain_to(
        &self,
        parents: &BTreeMap<FnId, Option<(FnId, usize)>>,
        target: FnId,
    ) -> Vec<String> {
        let mut rev: Vec<String> = Vec::new();
        let mut at = target;
        rev.push(self.fns[at].qual_name());
        while let Some(Some((from, call_idx))) = parents.get(&at) {
            let call = &self.fns[*from].calls[*call_idx];
            rev.push(format!(
                "{} ({}:{})",
                self.fns[*from].qual_name(),
                self.fns[*from].rel_path,
                call.line
            ));
            at = *from;
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::FileKind;

    fn file(crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new(crate_name, format!("crates/{crate_name}/src/lib.rs"), FileKind::Lib, src)
    }

    fn id(g: &CallGraph, qual: &str) -> FnId {
        g.fns
            .iter()
            .position(|f| f.qual_name() == qual)
            .unwrap_or_else(|| panic!("{qual} not in graph: {:?}",
                g.fns.iter().map(FnDef::qual_name).collect::<Vec<_>>()))
    }

    #[test]
    fn cross_crate_edges_resolve() {
        let files = vec![
            file("a", "pub fn top() { tsda_b::deep(); }\n"),
            file("b", "pub fn deep() { inner() }\nfn inner() {}\n"),
        ];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::top")]);
        assert!(parents.contains_key(&id(&g, "b::deep")));
        assert!(parents.contains_key(&id(&g, "b::inner")));
    }

    #[test]
    fn same_crate_free_fns_shadow_cross_crate_ones() {
        let files = vec![
            file("a", "pub fn go() { helper() }\nfn helper() {}\n"),
            file("b", "pub fn helper() { danger() }\npub fn danger() {}\n"),
        ];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        assert!(parents.contains_key(&id(&g, "a::helper")));
        assert!(!parents.contains_key(&id(&g, "b::helper")));
        assert!(!parents.contains_key(&id(&g, "b::danger")));
    }

    #[test]
    fn method_calls_hit_every_same_name_method_conservatively() {
        let files = vec![file(
            "a",
            "pub struct X; pub struct Y;\n\
             impl X { pub fn run(&self) {} }\n\
             impl Y { pub fn run(&self) { boom() } }\n\
             fn boom() {}\n\
             pub fn go(x: &X) { x.run(); }\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        // No receiver types: both X::run and Y::run are candidates.
        assert!(parents.contains_key(&id(&g, "a::X::run")));
        assert!(parents.contains_key(&id(&g, "a::Y::run")));
        assert!(parents.contains_key(&id(&g, "a::boom")));
    }

    #[test]
    fn qualified_calls_narrow_to_the_owner() {
        let files = vec![file(
            "a",
            "pub struct X; pub struct Y;\n\
             impl X { pub fn make() {} }\n\
             impl Y { pub fn make() { boom() } }\n\
             fn boom() {}\n\
             pub fn go() { X::make(); }\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        assert!(parents.contains_key(&id(&g, "a::X::make")));
        assert!(!parents.contains_key(&id(&g, "a::Y::make")));
        assert!(!parents.contains_key(&id(&g, "a::boom")));
    }

    #[test]
    fn std_qualifiers_resolve_to_nothing() {
        // `Vec::new()` can only be the std type; it must not edge into
        // a workspace `new` on some unrelated owner.
        let files = vec![file(
            "a",
            "pub struct Eig;\n\
             impl Eig { pub fn new() { boom() } }\n\
             fn boom() {}\n\
             pub fn go() { let _v: Vec<u8> = Vec::new(); }\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        assert!(!parents.contains_key(&id(&g, "a::Eig::new")));
        assert!(!parents.contains_key(&id(&g, "a::boom")));
    }

    #[test]
    fn self_qualified_calls_resolve_to_the_calling_fns_owner() {
        let files = vec![file(
            "a",
            "pub struct X; pub struct Y;\n\
             impl X { pub fn make() {} pub fn go() { Self::make(); } }\n\
             impl Y { pub fn make() { boom() } }\n\
             fn boom() {}\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::X::go")]);
        assert!(parents.contains_key(&id(&g, "a::X::make")));
        assert!(!parents.contains_key(&id(&g, "a::Y::make")));
        assert!(!parents.contains_key(&id(&g, "a::boom")));
    }

    #[test]
    fn dependency_closure_prunes_unlinkable_crates() {
        // `a` depends on `b` only; an unqualified method call in `a`
        // must not resolve into `c`, which `a` could never link.
        let files = vec![
            file("a", "pub fn go(m: &M) { m.get(); }\n"),
            file("b", "pub struct G;\nimpl G { pub fn get(&self) { reached() } }\npub fn reached() {}\n"),
            file("c", "pub struct H;\nimpl H { pub fn get(&self) { vetoed() } }\npub fn vetoed() {}\n"),
        ];
        let mut deps = BTreeMap::new();
        deps.insert("a".to_string(), BTreeSet::from(["b".to_string()]));
        deps.insert("b".to_string(), BTreeSet::new());
        deps.insert("c".to_string(), BTreeSet::new());
        let g = CallGraph::build_with_deps(&files, &deps);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        assert!(parents.contains_key(&id(&g, "b::reached")));
        assert!(!parents.contains_key(&id(&g, "c::vetoed")));
        // Without dependency info the same call keeps both candidates.
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        assert!(parents.contains_key(&id(&g, "c::vetoed")));
    }

    #[test]
    fn method_syntax_skips_receiverless_associated_fns() {
        // `limit.get()` cannot invoke `Limit::get()` — that associated
        // fn has no `self` receiver, so only `Map::get` is a candidate.
        let files = vec![file(
            "a",
            "pub struct Limit; pub struct Map;\n\
             impl Limit { pub fn get() { assoc_only() } }\n\
             impl Map { pub fn get(&self) { via_self() } }\n\
             fn assoc_only() {}\n\
             fn via_self() {}\n\
             pub fn go(m: &Map) { m.get(); }\n\
             pub fn go_assoc() { Limit::get(); }\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        assert!(parents.contains_key(&id(&g, "a::via_self")));
        assert!(!parents.contains_key(&id(&g, "a::assoc_only")));
        // The qualified form still reaches the receiver-less fn.
        let parents = g.reach_with_parents(&[id(&g, "a::go_assoc")]);
        assert!(parents.contains_key(&id(&g, "a::assoc_only")));
    }

    #[test]
    fn turbofish_calls_only_target_generic_fns() {
        // `s.parse::<f64>()` (std str::parse) cannot invoke the
        // non-generic workspace `Reader::parse`.
        let files = vec![file(
            "a",
            "pub struct Reader;\n\
             impl Reader { pub fn parse(&mut self) { concrete() } }\n\
             fn concrete() {}\n\
             pub fn lex<T>(s: &str) -> T { todo!() }\n\
             pub fn go(s: &str) { s.parse::<f64>(); lex::<f64>(s); }\n\
             pub fn go_plain(r: &mut Reader) { r.parse(); }\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        assert!(!parents.contains_key(&id(&g, "a::Reader::parse")));
        assert!(parents.contains_key(&id(&g, "a::lex")), "generic fns stay turbofish-callable");
        let parents = g.reach_with_parents(&[id(&g, "a::go_plain")]);
        assert!(parents.contains_key(&id(&g, "a::Reader::parse")));
    }

    #[test]
    fn dyn_slot_calls_narrow_to_coerced_implementors() {
        let files = vec![file(
            "a",
            "pub trait Step { fn apply(&self, x: u8) -> u8; }\n\
             pub struct Fast; pub struct Cold;\n\
             impl Step for Fast { fn apply(&self, x: u8) -> u8 { x } }\n\
             impl Step for Cold { fn apply(&self, x: u8) -> u8 { cold_helper(); x } }\n\
             fn cold_helper() {}\n\
             pub struct Stage { pub choose: Vec<Box<dyn Step>> }\n\
             pub fn build() -> Stage { Stage { choose: vec![Box::new(Fast)] } }\n\
             pub fn go(s: &Stage) -> u8 { s.choose[0].apply(1) }\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        // Only `Fast` is coerced into `dyn Step` anywhere in the
        // workspace, so `Cold::apply` (and its helper) drop out.
        assert!(parents.contains_key(&id(&g, "a::Fast::apply")));
        assert!(!parents.contains_key(&id(&g, "a::Cold::apply")));
        assert!(!parents.contains_key(&id(&g, "a::cold_helper")));
    }

    #[test]
    fn dyn_narrowing_keeps_trait_default_methods() {
        let files = vec![file(
            "a",
            "pub trait Step { fn apply(&self) { default_helper() } fn id(&self) -> u8; }\n\
             fn default_helper() {}\n\
             pub struct Fast;\n\
             impl Step for Fast { fn id(&self) -> u8 { 1 } }\n\
             pub fn build() -> Box<dyn Step> { Box::new(Fast) }\n\
             pub fn go(s: &Box<dyn Step>) { s.apply() }\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::go")]);
        assert!(parents.contains_key(&id(&g, "a::Step::apply")));
        assert!(parents.contains_key(&id(&g, "a::default_helper")));
    }

    #[test]
    fn recursion_cycles_terminate() {
        let files = vec![file(
            "a",
            "pub fn ping(n: usize) { if n > 0 { pong(n - 1) } }\n\
             pub fn pong(n: usize) { ping(n) }\n",
        )];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::ping")]);
        assert_eq!(parents.len(), 2);
    }

    #[test]
    fn chains_read_root_to_target_with_call_sites() {
        let files = vec![
            file("a", "pub fn top() {\n    mid();\n}\nfn mid() {\n    tsda_b::leaf();\n}\n"),
            file("b", "pub fn leaf() {}\n"),
        ];
        let g = CallGraph::build(&files);
        let parents = g.reach_with_parents(&[id(&g, "a::top")]);
        let chain = g.chain_to(&parents, id(&g, "b::leaf"));
        assert_eq!(
            chain,
            vec![
                "a::top (crates/a/src/lib.rs:2)",
                "a::mid (crates/a/src/lib.rs:5)",
                "b::leaf",
            ],
            "{chain:?}"
        );
    }
}

#![forbid(unsafe_code)]
//! R3 scratch-discipline fixture (the crate is listed in
//! `[rules.R3].scratch`).
//!
//! Pins the four behaviours of the rule: banned allocations in
//! hot-reachable fns are findings even when R3v2's escape analysis
//! clears them (the copies escape into return values); sites routed
//! through a `Scratch`-typed receiver or arena are approved; the
//! arena's own methods are exempt; and an `[[allow]]` entry is
//! honoured like any other rule.

/// Per-worker arena: its own methods may allocate (that is its job).
pub struct ReqScratch {
    pub staging: Vec<f64>,
}

impl ReqScratch {
    /// Exempt: `Scratch`-owned methods are where allocation lives.
    pub fn grow(&mut self, n: usize) {
        self.staging = Vec::with_capacity(n);
    }
}

/// Hot root: the `.to_vec()` copy escapes into `encode`'s argument so
/// escape analysis clears it, but the discipline still bans it — serving crates route
/// buffers through the arena instead of allocating fresh ones.
#[doc(alias = "tsda::hot")]
pub fn submit(scratch: &mut ReqScratch, xs: &[f64]) -> usize {
    scratch.staging.extend_from_slice(xs);
    let copy = xs.to_vec();
    encode(&copy)
}

fn encode(xs: &[f64]) -> usize {
    let label = format!("{}", xs.len());
    label.len()
}

/// Approved: the allocation lands in the scratch arena.
#[doc(alias = "tsda::hot")]
pub fn stage(scratch: &mut ReqScratch, n: usize) {
    if scratch.staging.capacity() < n {
        scratch.staging = Vec::with_capacity(n);
    }
}

/// Allowlisted in the fixture config.
#[doc(alias = "tsda::hot")]
pub fn legacy(xs: &[f64]) -> usize {
    let boxed = Box::new(xs.len()); // allowlisted: fixture
    *boxed
}

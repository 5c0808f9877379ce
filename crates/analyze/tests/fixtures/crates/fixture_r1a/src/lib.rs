#![forbid(unsafe_code)]
//! Interprocedural-rule fixture, crate A: the configured R1 root
//! (`handle`) reaches the panic in `fixture_r1b` through two hops, so
//! the integration test can pin the full reported chain. Also hosts
//! one violation each for R2, R3, and R4, plus an allowlisted R4
//! accumulation and two `Result`s that R2 must not flag.

/// R1 root (configured in the fixture analyze.toml).
pub fn handle() {
    dispatch();
}

fn dispatch() {
    tsda_fixture_r1b::finish();
}

/// A workspace `Result` producer for the R2 fixture.
pub fn save() -> Result<(), String> {
    Ok(())
}

/// R2: discards a workspace `Result` via `let _ =`.
pub fn sloppy() {
    let _ = save();
}

/// Not R2: a trailing `.expect(..)` or `.unwrap()` consumes the
/// `Result` (whether it may panic is P1's question, not R2's).
pub fn strict() {
    save().expect("saved");
    save().unwrap();
}

/// R3 root: tagged hot, reaches the allocations in `helper`.
#[doc(alias = "tsda::hot")]
pub fn hot_entry(n: usize) {
    helper(n);
}

fn helper(n: usize) {
    let mut v = Vec::new();
    v.push(n);
}

/// R4: a bare float reduction that should route through sum_stable.
pub fn total(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>()
}

/// R4, tolerated: a prefix scan whose partial sums are the result.
pub fn cumsum(xs: &[f64]) -> Vec<f64> {
    let mut acc = 0.0f64;
    let mut out = Vec::with_capacity(xs.len());
    for &v in xs {
        acc += v; // allowlisted: fixture
        out.push(acc);
    }
    out
}

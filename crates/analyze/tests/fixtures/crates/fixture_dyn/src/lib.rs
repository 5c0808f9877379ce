#![forbid(unsafe_code)]
//! Trait-object narrowing + R3v2 escape-clearing fixture.
//!
//! `drive` is hot and calls through the `Box<dyn Step>` slot in
//! `Runner`. Non-test code only ever coerces `Fast` into the slot, so
//! call-graph narrowing must reach `Fast::apply`'s allocations and
//! must NOT reach `Slow::apply`'s. `fill` pins R3v2: its staging
//! allocation provably flows into the caller's `&mut` out-param, so
//! the escape analysis clears it even on the hot path. `Lean::run`
//! pins the `self.m(..)` narrowing to the caller's own type.

pub trait Step {
    fn apply(&self, x: usize) -> usize;
}

pub struct Fast;
pub struct Slow;

impl Step for Fast {
    fn apply(&self, x: usize) -> usize {
        // A dead scratch buffer: pure churn the escape analysis must
        // NOT clear (it never flows to the result or an out-param).
        let mut tmp = Vec::new();
        tmp.push(x);
        x + 1
    }
}

impl Step for Slow {
    fn apply(&self, x: usize) -> usize {
        let mut tmp = Vec::new();
        tmp.push(x);
        x + 1
    }
}

/// Holds the dyn slot the narrowing keys on.
pub struct Runner {
    step: Box<dyn Step>,
}

/// The only non-test coercion into the slot: admits `Fast`, not `Slow`.
pub fn build() -> Runner {
    Runner { step: Box::new(Fast) }
}

/// R3 root: reaches `Fast::apply` through the dyn slot.
#[doc(alias = "tsda::hot")]
pub fn drive(r: &Runner, x: usize) -> usize {
    r.step.apply(x)
}

/// R3v2: the staging buffer flows into the caller's out-param, so the
/// escape analysis clears both the `vec!` and the `.extend()`.
#[doc(alias = "tsda::hot")]
pub fn fill(out: &mut Vec<usize>, n: usize) {
    let staged = vec![0usize; n];
    out.extend(staged);
}

/// Two owners of one method name: `self.step(..)` in `Lean`'s hot
/// `run` can only be `Lean::step`, so `Heavy::step`'s allocations stay
/// unreached.
pub struct Lean;
pub struct Heavy;

impl Lean {
    /// R3 root whose only callee is its own type's `step`.
    #[doc(alias = "tsda::hot")]
    pub fn run(&self, x: usize) -> usize {
        self.step(x)
    }

    fn step(&self, x: usize) -> usize {
        x + 1
    }
}

impl Heavy {
    pub fn step(&self, x: usize) -> usize {
        let mut tmp = Vec::new();
        tmp.push(x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_is_only_coerced_in_tests() {
        // A test-only coercion must stay invisible to the narrowing.
        let r = Runner { step: Box::new(Slow) };
        assert_eq!(drive(&r, 1), 1);
    }
}

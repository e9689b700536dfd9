//! Every lint waiver is an `#[expect]` with a reason: `#[allow]` and a
//! reason-less waiver are rejected, and an expectation that nothing fulfils
//! is `unfulfilled_lint_expectations` (an error under `-D warnings`).

/// An `#[allow]` is rejected twice: for the attribute and for the reason.
#[allow(clippy::float_cmp)] //~ clippy::allow_attributes //~ clippy::allow_attributes_without_reason
pub fn allowed(x: f64) -> bool {
    x == 1.5
}

/// A reason-less `#[expect]` is rejected.
#[expect(clippy::float_cmp)] //~ clippy::allow_attributes_without_reason
pub fn expected_without_reason(x: f64) -> bool {
    x == 1.5
}

/// A reasoned expectation that fires is the sanctioned waiver.
#[expect(clippy::float_cmp, reason = "fixture: an exact sentinel")]
pub fn expected(x: f64) -> bool {
    x == 1.5
}

/// A stale expectation is rejected.
#[expect(clippy::float_cmp, reason = "fixture: nothing here compares floats")] //~ unfulfilled_lint_expectations
pub fn stale() -> u32 {
    7
}

//! Retired `unsafe-audit`: every `unsafe` block states the invariant it relies on
//! in a `// SAFETY:` comment (`clippy::undocumented_unsafe_blocks`).

#![expect(unsafe_code, reason = "fixture: the unsafe blocks are the hazard under test")]

/// Reads through a raw pointer without saying why that is sound.
pub fn undocumented(p: &u8) -> u8 {
    let raw: *const u8 = p;
    unsafe { *raw } //~ clippy::undocumented_unsafe_blocks
}

/// The sanctioned form: the invariant, written down.
pub fn documented(p: &u8) -> u8 {
    let raw: *const u8 = p;
    // SAFETY: `raw` comes from a live shared reference.
    unsafe { *raw }
}

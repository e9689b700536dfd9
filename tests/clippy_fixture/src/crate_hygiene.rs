//! Retired `crate-hygiene`: `[workspace.lints.rust]` denies unsafe code and
//! warns on missing docs in every member, with no crate-root attribute to
//! forget.

pub const UNDOCUMENTED: u32 = 42; //~ missing_docs

/// Reads through a raw pointer.
pub fn reads_through_a_raw_pointer(p: &u8) -> u8 {
    let raw: *const u8 = p;
    // SAFETY: `raw` comes from a live shared reference.
    unsafe { *raw } //~ unsafe_code
}

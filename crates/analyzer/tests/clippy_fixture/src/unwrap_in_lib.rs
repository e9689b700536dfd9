//! Retired `unwrap-in-lib`: the library crates' root denies
//! `clippy::unwrap_used`, `clippy::expect_used` and `clippy::panic` outside
//! `cfg(test)`.

use std::collections::BTreeMap;

/// Panics on `None`.
pub fn unwraps(v: Option<u32>) -> u32 {
    v.unwrap() //~ clippy::unwrap_used
}

/// Panics on `None` with a message.
pub fn expects(v: Option<u32>) -> u32 {
    v.expect("present") //~ clippy::expect_used
}

/// Panics when asked to.
pub fn panics(flag: bool) {
    if flag {
        panic!("boom"); //~ clippy::panic
    }
}

/// `unwrap_or` / `unwrap_or_else` / `unwrap_or_default` carry no panic path.
pub fn fallbacks_are_fine(v: Option<u32>, m: &BTreeMap<u32, u32>) -> u32 {
    v.unwrap_or(0)
        + v.unwrap_or_else(|| u32::from(m.is_empty()))
        + m.get(&0).copied().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v = std::hint::black_box(Some(1u32));
        v.unwrap();
        v.expect("fine in tests");
        if v.is_none() {
            panic!("fine in tests");
        }
    }
}

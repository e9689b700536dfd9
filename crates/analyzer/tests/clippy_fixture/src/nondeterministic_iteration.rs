//! Retired `nondeterministic-iteration`: `clippy::disallowed_types`
//! rejects every line that names a hash-ordered container, so no walk over
//! one compiles without a waiver. Each walk the old rule flagged is
//! rejected where its container's type is named.

use std::collections::{HashMap, HashSet}; //~ clippy::disallowed_types

/// A walk over a parameter: rejected at the parameter's type.
pub fn annotated_param(
    m: &HashMap<String, u32>, //~ clippy::disallowed_types
) -> u32 {
    let mut total = 0;
    for (_k, v) in m.iter() {
        total += v;
    }
    total
}

/// Walks over a local: rejected at its initializer.
pub fn initializer_binding() -> Vec<u32> {
    let mut set = HashSet::new(); //~ clippy::disallowed_types
    set.insert(1u32);
    let mut out: Vec<u32> = set.iter().copied().collect();
    for v in &set {
        out.push(*v);
    }
    out
}

/// `values()` and `drain()`: rejected at the owned parameter's type.
pub fn values_and_drain(
    mut counts: HashMap<u8, u64>, //~ clippy::disallowed_types
) -> u64 {
    let a: u64 = counts.values().sum();
    let b: u64 = counts.drain().map(|(_, v)| v).sum();
    a + b
}

/// Collect-then-sort still walks the table: rejected at the type.
pub fn sorted_collect(
    m: &HashMap<String, u32>, //~ clippy::disallowed_types
) -> Vec<String> {
    let mut keys: Vec<String> = m.keys().cloned().collect();
    keys.sort();
    keys
}

/// A sanctioned lookup-only map is waived where its type is named.
#[expect(clippy::disallowed_types, reason = "fixture: lookup-only table")]
pub type Lookup = HashMap<String, u64>;

/// Lookups through the waived alias raise nothing.
pub fn lookup_only(m: &Lookup) -> Option<u64> {
    m.get("alpha").copied()
}

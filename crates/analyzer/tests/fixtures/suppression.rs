//! Fixture: `analyzer:allow` suppression semantics (scanned with
//! `lib_crate = true`; the vehicle is `telemetry-on-hot-path`'s `.snapshot()`).

pub fn same_line_allow(r: &Registry) -> Snapshot {
    r.snapshot() // analyzer:allow(telemetry-on-hot-path): fixture demonstrates same-line suppression
}

pub fn line_above_allow(r: &Registry) -> Snapshot {
    // analyzer:allow(telemetry-on-hot-path): fixture demonstrates line-above suppression
    r.snapshot()
}

pub fn allow_without_reason(r: &Registry) -> Snapshot {
    r.snapshot() // analyzer:allow(telemetry-on-hot-path) //~ telemetry-on-hot-path //~ bad-allow
}

pub fn allow_with_unknown_rule(r: &Registry) -> Snapshot {
    r.snapshot() // analyzer:allow(made-up-rule): not a real rule //~ telemetry-on-hot-path //~ bad-allow
}

pub fn wrong_rule_does_not_suppress(r: &Registry) -> Snapshot {
    // analyzer:allow(hot-path-alloc): names the wrong rule, so the snapshot still fires //~ stale-allow
    r.snapshot() //~ telemetry-on-hot-path
}

pub fn retired_rule_is_unknown(v: Option<u32>) -> u32 {
    // analyzer:allow(unwrap-in-lib): clippy::unwrap_used owns this hazard now //~ bad-allow
    v.unwrap()
}

//! Fixture: `stale-allow` (scanned with `lib_crate: true`). A waiver whose
//! rule no longer fires anywhere nearby is itself a finding; a waiver that
//! still covers a live finding suppresses it and stays silent.

pub fn dead_waiver(v: &[f64]) -> f64 {
    // analyzer:allow(hot-path-alloc): the buffer this covered was hoisted long ago //~ stale-allow
    v[0] * 2.0
}

pub fn live_waiver(r: &Registry) -> Snapshot {
    r.snapshot() // analyzer:allow(telemetry-on-hot-path): fixture: the waiver still covers a live finding
}

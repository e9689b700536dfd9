//! Fixture: telemetry-on-hot-path (scanned with `lib_crate = true`,
//! `telemetry_crate = false`; golden.rs also rescans it under the waived
//! classes to pin the rule's scope).

pub fn per_round_report(registry: &faction_telemetry::Registry) -> String {
    registry.snapshot().to_json() //~ telemetry-on-hot-path
}

// A *binding* named snapshot is fine; only the method call merges shards.
pub fn binding_named_snapshot(snapshot: &str) -> usize {
    snapshot.len()
}

pub fn grid_end_report(registry: &faction_telemetry::Registry) -> String {
    // analyzer:allow(telemetry-on-hot-path): report-time snapshot at grid end
    registry.snapshot().to_json()
}

#[cfg(test)]
mod tests {
    #[test]
    fn snapshots_inside_tests_are_exempt() {
        let _ = faction_telemetry::Registry::default().snapshot();
    }
}

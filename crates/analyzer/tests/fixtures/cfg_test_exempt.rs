//! Fixture: `#[cfg(test)]` / `mod tests` exemption (scanned with
//! `lib_crate = true`; the vehicle is `telemetry-on-hot-path`'s `.snapshot()`).

pub fn live_code(r: &Registry) -> Snapshot {
    r.snapshot() //~ telemetry-on-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_here_are_exempt() {
        let r = Registry::default();
        let _ = r.snapshot();
        let _ = unsafe { std::mem::zeroed::<u64>() };
    }
}

mod extra_tests {
    pub fn helpers_in_test_modules_are_exempt(r: &super::Registry) -> super::Snapshot {
        r.snapshot()
    }
}

#[cfg(not(test))]
pub fn cfg_not_test_is_live(r: &Registry) -> Snapshot {
    r.snapshot() //~ telemetry-on-hot-path
}

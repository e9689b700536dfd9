//! Runtime kernel backend selection for the dense GEMM hot path.
//!
//! The blocked scalar kernels in [`crate::kernels`] are the always-available
//! bit-reference. This module decides, once per process, which
//! *implementation* of the same arithmetic the `Matrix` products dispatch
//! to:
//!
//! * [`KernelBackend::Scalar`] — the blocked/packed reference kernels.
//! * [`KernelBackend::Simd`] — the AVX2 micro-kernel in [`crate::simd`]
//!   (x86-64 with `avx2` detected at runtime; falls back to scalar
//!   elsewhere). Lane-parallel across the `NR` output columns with separate
//!   multiply and add (never FMA), so every output element keeps the exact
//!   ascending-`k` accumulation order of the scalar loop and results stay
//!   **bit-identical** across backends.
//!
//! The choice is made by [`simd_available`]; it is not configurable. Both
//! backends produce bit-identical f64 results (proven by the
//! `kernel_equivalence` property tests and the end-to-end `RunRecord`
//! equality suite), so artifacts are reproducible byte-for-byte regardless
//! of what a given host dispatches to. [`set_active_backend`] exists only
//! as a test and bench seam for comparing the two paths in one build.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which GEMM implementation the `Matrix` products dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Blocked/packed scalar reference kernels (always available).
    Scalar,
    /// AVX2 micro-kernel, runtime-detected; scalar fallback elsewhere.
    Simd,
}

impl KernelBackend {
    /// Stable lowercase name recorded in `RunRecord`s and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }

    /// Feature-detected default for this host: [`KernelBackend::Simd`] when
    /// the AVX2 micro-kernel can run, otherwise [`KernelBackend::Scalar`].
    pub fn detect() -> KernelBackend {
        if simd_available() {
            KernelBackend::Simd
        } else {
            KernelBackend::Scalar
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether the explicit SIMD micro-kernel can run on this host.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Process-global active backend: 0 = unresolved, else variant + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(b: KernelBackend) -> u8 {
    match b {
        KernelBackend::Scalar => 1,
        KernelBackend::Simd => 2,
    }
}

/// The backend `Matrix::matmul` (and friends) currently dispatch to.
///
/// Resolved lazily: the first read after startup feature-detects via
/// [`KernelBackend::detect`] and pins the result, so every caller in the
/// process sees the same choice until [`set_active_backend`] overrides it.
pub fn active_backend() -> KernelBackend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => KernelBackend::Scalar,
        2 => KernelBackend::Simd,
        _ => {
            let detected = KernelBackend::detect();
            // Racing first-readers all store the same detected value.
            ACTIVE.store(encode(detected), Ordering::Relaxed);
            detected
        }
    }
}

/// Overrides the process-global backend (tests and benches only).
///
/// Safe at any time: both backends are bit-identical on f64, so a mid-run
/// switch changes throughput, never results.
pub fn set_active_backend(b: KernelBackend) {
    ACTIVE.store(encode(b), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelBackend::Scalar.as_str(), "scalar");
        assert_eq!(KernelBackend::Simd.as_str(), "simd");
        for b in [KernelBackend::Scalar, KernelBackend::Simd] {
            assert_eq!(format!("{b}"), b.as_str());
        }
    }

    #[test]
    fn detect_follows_simd_availability() {
        let want = if simd_available() { KernelBackend::Simd } else { KernelBackend::Scalar };
        assert_eq!(KernelBackend::detect(), want);
    }

    #[test]
    fn set_and_read_active_backend() {
        // Global state: other tests may race this, but every value written
        // is a valid backend, so read-your-write only needs to hold long
        // enough for a same-thread round trip.
        let prev = active_backend();
        set_active_backend(KernelBackend::Scalar);
        assert!([KernelBackend::Scalar, KernelBackend::Simd].contains(&active_backend()));
        set_active_backend(prev);
    }
}

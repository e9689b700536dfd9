//! Runtime kernel backend selection for the dense GEMM hot path.
//!
//! The blocked scalar kernels in [`crate::kernels`] are the always-available
//! bit-reference. This module decides, once per process, which set of
//! register-tile micro-kernels the one macro-kernel behind the `Matrix`
//! products runs:
//!
//! * [`KernelBackend::Scalar`] — the blocked/packed reference kernels.
//! * [`KernelBackend::Simd`] — the AVX2 tiles in [`crate::simd`]: the
//!   `MR × NR` full tile and the full-height narrow tile (x86-64 with
//!   `avx2` detected at runtime; scalar fallback elsewhere).
//! * [`KernelBackend::Avx512`] — the AVX2 tiles plus the AVX-512 **pair
//!   tile**, `MR × 2·NR` over two adjacent packed `NR` panels, which takes
//!   every full tile that has a neighbour (x86-64 with `avx512f` detected;
//!   the AVX2 tiles, then scalar, elsewhere).
//!
//! Every tile is lane-parallel with separate multiply and add (never FMA),
//! so each output element keeps the exact ascending-`k` accumulation order
//! of the scalar loop and results stay **bit-identical** across backends.
//!
//! The choice is made by [`KernelBackend::detect`] — AVX-512, then AVX2,
//! then scalar; it is not configurable. All backends produce bit-identical
//! f64 results (proven by the `kernel_equivalence` property tests and the
//! end-to-end `RunRecord` equality suite), so artifacts are reproducible
//! byte-for-byte regardless of what a given host dispatches to.
//! [`set_active_backend`] exists only as a test and bench seam for
//! comparing the paths in one build; pinning a backend the host cannot run
//! falls back to the best one it can, bit-identically.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which GEMM implementation the `Matrix` products dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Blocked/packed scalar reference kernels (always available).
    Scalar,
    /// AVX2 micro-kernels, runtime-detected; scalar fallback elsewhere.
    Simd,
    /// AVX2 micro-kernels plus the AVX-512 pair tile, runtime-detected;
    /// AVX2 (then scalar) fallback elsewhere.
    Avx512,
}

impl KernelBackend {
    /// Every backend, narrowest tiles first.
    pub const ALL: [KernelBackend; 3] =
        [KernelBackend::Scalar, KernelBackend::Simd, KernelBackend::Avx512];

    /// Stable lowercase name recorded in `RunRecord`s and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// Whether this host runs the backend's own tiles (rather than falling
    /// back to a narrower backend's).
    pub fn available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Simd => simd_available(),
            KernelBackend::Avx512 => avx512_available(),
        }
    }

    /// Feature-detected default for this host: the widest available of
    /// [`KernelBackend::Avx512`], [`KernelBackend::Simd`] and
    /// [`KernelBackend::Scalar`].
    pub fn detect() -> KernelBackend {
        if avx512_available() {
            KernelBackend::Avx512
        } else if simd_available() {
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

/// Whether the AVX2 micro-kernels can run on this host.
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

/// Whether the AVX-512 pair tile can run on this host. The backend also
/// runs the AVX2 tiles, so it needs both features.
pub(crate) fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd_available() && std::arch::is_x86_feature_detected!("avx512f")
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
        KernelBackend::Avx512 => 3,
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
        3 => KernelBackend::Avx512,
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
/// Safe at any time: every backend is bit-identical on f64, so a mid-run
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
        assert_eq!(KernelBackend::Avx512.as_str(), "avx512");
        for b in KernelBackend::ALL {
            assert_eq!(format!("{b}"), b.as_str());
        }
    }

    #[test]
    fn detect_prefers_the_widest_available_backend() {
        let want = if avx512_available() {
            KernelBackend::Avx512
        } else if simd_available() {
            KernelBackend::Simd
        } else {
            KernelBackend::Scalar
        };
        assert_eq!(KernelBackend::detect(), want);
        assert!(KernelBackend::detect().available());
        assert!(KernelBackend::Scalar.available());
        // AVX-512 implies the AVX2 tiles it falls back to for edges.
        assert!(!KernelBackend::Avx512.available() || KernelBackend::Simd.available());
    }

    #[test]
    fn set_and_read_active_backend() {
        // Global state: other tests may race this, but every value written
        // is a valid backend, so read-your-write only needs to hold long
        // enough for a same-thread round trip.
        let prev = active_backend();
        set_active_backend(KernelBackend::Avx512);
        assert!(KernelBackend::ALL.contains(&active_backend()));
        set_active_backend(prev);
    }
}

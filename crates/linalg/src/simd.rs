//! Explicit x86 SIMD micro-kernels: the AVX2 4×8 GEMM register tile and
//! its full-height narrow tiles, and the AVX-512 4×16 pair tile.
//!
//! These are the [`KernelBackend::Simd`] and [`KernelBackend::Avx512`]
//! implementations of the blocked products in [`crate::kernels`] — `A·B`,
//! `Aᵀ·B` and `A·Bᵀ` all reach them through the one macro-kernel. The AVX2
//! tiles vectorize two shapes: the full `MR × NR` tile, where most flops
//! are, and the narrow tile (`jlen < NR` columns over a row block of up to
//! four `MR`-row micro-panels, which run together so their accumulator
//! chains overlap), which is every tile of the class head's `n = C`
//! products. The AVX-512 backend adds the **pair tile**, `MR × 2·NR`: two
//! adjacent packed `NR` panels in eight `__m512d` accumulators, which takes
//! every full tile that has a full neighbour and leaves the rest (a
//! leftover single panel, narrow and short tiles) to the AVX2 tiles. Short
//! tiles (`ilen < MR`) keep the scalar reference code on every backend.
//!
//! # Bit-identity contract
//!
//! The scalar micro-kernel computes, for each output element `(i, j)`, a
//! left-to-right sum over ascending `k` of `a[i][k] * b[k][j]`. The full
//! and pair tiles vectorize across the **j lanes** of the register tile —
//! each of the 8 (16) output columns lives in its own vector lane; the
//! narrow kernel vectorizes across the **i lanes** — each of the `MR = 4`
//! rows of a packed micro-panel lives in its own lane, one accumulator per
//! (column, micro-panel),
//! multiplied by a broadcast `b[k][j]` (IEEE multiplication is commutative,
//! so `a[i][k] * b[k][j]` rounds the same either way round). All of them
//! perform a separate multiply and add per `k` step (`_mm256_mul_pd` +
//! `_mm256_add_pd`, `_mm512_mul_pd` + `_mm512_add_pd`; never an FMA:
//! fusing would skip the intermediate rounding the scalar loop performs
//! and break bit parity). Per lane, the arithmetic sequence is therefore
//! *exactly* the scalar loop's, and the results are bit-identical —
//! asserted by the tests below and the `kernel_equivalence` property suite.
//!
//! # Safety architecture
//!
//! The only `unsafe` here is (a) calling a `#[target_feature(enable =
//! "avx2")]` or `"avx512f"` function after a positive runtime
//! `is_x86_feature_detected!` check, and (b) unaligned vector loads/stores
//! whose bounds are established by the same slice-length assertions the
//! scalar kernels run. Every unsafe site carries an
//! `analyzer:unsafe(invariant)` audit marker, enforced by the workspace
//! analyzer, and this file's `#[cfg(test)]` region cross-checks the kernels
//! against the scalar reference.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]

use crate::dispatch::{avx512_available, simd_available, KernelBackend};
use crate::kernels::{kernel_edge, kernel_full, Tiles, MR, NR, SCALAR_TILES};

/// The AVX2 backend's tiles.
const AVX2_TILES: Tiles = Tiles { full: kernel_full_simd, edge: kernel_edge_simd, pair: None };

/// The AVX-512 backend's tiles: the AVX2 tiles plus the pair tile.
const AVX512_TILES: Tiles = Tiles { pair: Some(kernel_pair_simd), ..AVX2_TILES };

/// The micro-kernels `backend` runs on this host: its own when the runtime
/// check passes, otherwise the widest narrower backend's (AVX-512 → AVX2 →
/// scalar). All produce bit-identical output (see module docs), so the
/// choice is pure throughput.
pub(crate) fn select_tiles(backend: KernelBackend) -> Tiles {
    match backend {
        KernelBackend::Avx512 if avx512_available() => AVX512_TILES,
        KernelBackend::Avx512 | KernelBackend::Simd if simd_available() => AVX2_TILES,
        _ => SCALAR_TILES,
    }
}

/// Safe wrapper matching [`crate::kernels::FullTile`]: re-verifies the CPU
/// feature (cached atomic in std) and dispatches to the AVX2 kernel, or to
/// the scalar reference when the feature is absent.
pub(crate) fn kernel_full_simd(
    apack: &[f64],
    klen: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // analyzer:unsafe(invariant): avx2 verified by is_x86_feature_detected on the line above; tile bounds are re-asserted inside the kernel before any raw load/store
        unsafe { kernel_full_avx2(apack, klen, b, ldb, out, ldo) };
        return;
    }
    kernel_full(apack, klen, b, ldb, out, ldo);
}

/// Safe wrapper matching [`crate::kernels::EdgeTile`]: a narrow tile
/// (`jlen < NR`) runs its full-height micro-panels through the AVX2 narrow
/// kernel, monomorphized per width; a short micro-panel, and every tile on
/// a host without AVX2, takes the scalar [`kernel_edge`].
#[expect(clippy::too_many_arguments, reason = "the EdgeTile ABI")]
pub(crate) fn kernel_edge_simd(
    apack: &[f64],
    klen: usize,
    ilen: usize,
    b: &[f64],
    ldb: usize,
    jlen: usize,
    out: &mut [f64],
    ldo: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if jlen < NR && ilen >= MR && simd_available() {
        // Up to eight accumulators: four micro-panels at once for one or
        // two columns, two for three or four, one beyond.
        let narrow = match jlen {
            1 => kernel_narrow_avx2::<1, 4>,
            2 => kernel_narrow_avx2::<2, 4>,
            3 => kernel_narrow_avx2::<3, 2>,
            4 => kernel_narrow_avx2::<4, 2>,
            5 => kernel_narrow_avx2::<5, 1>,
            6 => kernel_narrow_avx2::<6, 1>,
            7 => kernel_narrow_avx2::<7, 1>,
            _ => unreachable!("a narrow tile is narrower than NR"),
        };
        let full = ilen / MR;
        // analyzer:unsafe(invariant): avx2 verified by is_x86_feature_detected on the line above; tile bounds are re-asserted inside the kernel before any raw load/store
        unsafe { narrow(apack, klen, full, b, ldb, out, ldo) };
        if full * MR < ilen {
            let (apack, out) = (&apack[full * klen * MR..], &mut out[full * MR * ldo..]);
            kernel_edge(apack, klen, ilen - full * MR, b, ldb, jlen, out, ldo);
        }
        return;
    }
    kernel_edge(apack, klen, ilen, b, ldb, jlen, out, ldo);
}

/// Safe wrapper matching [`crate::kernels::PairTile`]: re-verifies the CPU
/// feature and dispatches to the AVX-512 pair kernel, or runs the two
/// panels as two [`kernel_full_simd`] tiles when the feature is absent.
pub(crate) fn kernel_pair_simd(
    apack: &[f64],
    klen: usize,
    b: &[f64],
    ldb: usize,
    hi: usize,
    out: &mut [f64],
    ldo: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // analyzer:unsafe(invariant): avx512f verified by is_x86_feature_detected on the line above; tile bounds are re-asserted inside the kernel before any raw load/store
        unsafe { kernel_pair_avx512(apack, klen, b, ldb, hi, out, ldo) };
        return;
    }
    kernel_full_simd(apack, klen, b, ldb, out, ldo);
    kernel_full_simd(apack, klen, &b[hi..], ldb, &mut out[NR..], ldo);
}

/// AVX-512 pair-tile micro-kernel: `MR × 2·NR` = 4 rows × 16 columns over
/// two `NR`-wide B panels, the second `hi` f64 after the first, both at row
/// stride `ldb`. Each row's 16 accumulators are two `__m512d` (one per
/// panel), seeded from `out` and written back once per k-panel; per k step
/// one broadcast of each packed A value, two B loads, and a separate
/// `_mm512_mul_pd` + `_mm512_add_pd` per accumulator — per lane exactly the
/// sequence of the scalar [`kernel_full`], twice over.
///
/// # Safety
/// Caller must ensure the `avx512f` target feature is available. Slice
/// bounds are asserted on entry: `apack` covers `klen` packed k-steps of
/// `MR` rows, `b` holds `klen` rows of both panels at row stride `ldb` and
/// `out` holds `MR` rows of `2·NR` columns at row stride `ldo`; all raw
/// loads/stores below stay inside those asserted ranges.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// analyzer:ordered: lane-parallel across j, ascending-k per lane with separate mul+add — the scalar kernel_full order
// analyzer:unsafe(invariant): bounds asserted on entry (apack/b/out cover the tile); loads and stores are unaligned and stay within the asserted slice ranges; no FMA so rounding matches the scalar reference
unsafe fn kernel_pair_avx512(
    apack: &[f64],
    klen: usize,
    b: &[f64],
    ldb: usize,
    hi: usize,
    out: &mut [f64],
    ldo: usize,
) {
    use core::arch::x86_64::{
        _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd,
    };
    assert!(apack.len() >= klen * MR);
    assert!(hi >= NR);
    assert!(klen == 0 || (klen - 1) * ldb + hi + NR <= b.len());
    assert!((MR - 1) * ldo + 2 * NR <= out.len());

    let mut acc0;
    let mut acc1;
    let mut acc2;
    let mut acc3;
    let mut acc4;
    let mut acc5;
    let mut acc6;
    let mut acc7;
    {
        let o = out.as_ptr();
        acc0 = _mm512_loadu_pd(o);
        acc1 = _mm512_loadu_pd(o.add(NR));
        acc2 = _mm512_loadu_pd(o.add(ldo));
        acc3 = _mm512_loadu_pd(o.add(ldo + NR));
        acc4 = _mm512_loadu_pd(o.add(2 * ldo));
        acc5 = _mm512_loadu_pd(o.add(2 * ldo + NR));
        acc6 = _mm512_loadu_pd(o.add(3 * ldo));
        acc7 = _mm512_loadu_pd(o.add(3 * ldo + NR));
    }
    for kk in 0..klen {
        let b_row = b.as_ptr().add(kk * ldb);
        let b0 = _mm512_loadu_pd(b_row);
        let b1 = _mm512_loadu_pd(b_row.add(hi));
        let ap = apack.as_ptr().add(kk * MR);
        let a0 = _mm512_set1_pd(*ap);
        acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(a0, b0));
        acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(a0, b1));
        let a1 = _mm512_set1_pd(*ap.add(1));
        acc2 = _mm512_add_pd(acc2, _mm512_mul_pd(a1, b0));
        acc3 = _mm512_add_pd(acc3, _mm512_mul_pd(a1, b1));
        let a2 = _mm512_set1_pd(*ap.add(2));
        acc4 = _mm512_add_pd(acc4, _mm512_mul_pd(a2, b0));
        acc5 = _mm512_add_pd(acc5, _mm512_mul_pd(a2, b1));
        let a3 = _mm512_set1_pd(*ap.add(3));
        acc6 = _mm512_add_pd(acc6, _mm512_mul_pd(a3, b0));
        acc7 = _mm512_add_pd(acc7, _mm512_mul_pd(a3, b1));
    }
    let o = out.as_mut_ptr();
    _mm512_storeu_pd(o, acc0);
    _mm512_storeu_pd(o.add(NR), acc1);
    _mm512_storeu_pd(o.add(ldo), acc2);
    _mm512_storeu_pd(o.add(ldo + NR), acc3);
    _mm512_storeu_pd(o.add(2 * ldo), acc4);
    _mm512_storeu_pd(o.add(2 * ldo + NR), acc5);
    _mm512_storeu_pd(o.add(3 * ldo), acc6);
    _mm512_storeu_pd(o.add(3 * ldo + NR), acc7);
}

/// AVX2 full-tile micro-kernel: `MR × NR` = 4 rows × 8 columns, each row's
/// 8 accumulators held in two `__m256d`, seeded from `out` and written back
/// once per k-panel — the exact structure (and accumulation order) of the
/// scalar [`crate::kernels::kernel_full`], with separate mul + add so every
/// partial sum rounds where the scalar loop rounds.
///
/// # Safety
/// Caller must ensure the `avx2` target feature is available. Slice bounds
/// are asserted on entry: `apack` covers `klen` packed k-steps of `MR`
/// rows, `b` holds `klen` rows of `NR` columns at row stride `ldb` and
/// `out` holds `MR` rows of `NR` columns at row stride `ldo`; all raw
/// loads/stores below stay inside those asserted ranges.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// analyzer:ordered: lane-parallel across j, ascending-k per lane with separate mul+add — the scalar kernel_full order
// analyzer:unsafe(invariant): bounds asserted on entry (apack/b/out cover the tile); loads and stores are unaligned and stay within the asserted slice ranges; no FMA so rounding matches the scalar reference
unsafe fn kernel_full_avx2(
    apack: &[f64],
    klen: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
) {
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };
    // O(1) guards against O(klen·MR·NR) work, mirroring the scalar kernels'
    // release-mode shape checks: every raw pointer below is derived from a
    // base + offset proven in-bounds here.
    assert!(apack.len() >= klen * MR);
    assert!(klen == 0 || (klen - 1) * ldb + NR <= b.len());
    assert!((MR - 1) * ldo + NR <= out.len());

    let mut acc0;
    let mut acc1;
    let mut acc2;
    let mut acc3;
    let mut acc4;
    let mut acc5;
    let mut acc6;
    let mut acc7;
    {
        let o = out.as_ptr();
        acc0 = _mm256_loadu_pd(o);
        acc1 = _mm256_loadu_pd(o.add(4));
        acc2 = _mm256_loadu_pd(o.add(ldo));
        acc3 = _mm256_loadu_pd(o.add(ldo + 4));
        acc4 = _mm256_loadu_pd(o.add(2 * ldo));
        acc5 = _mm256_loadu_pd(o.add(2 * ldo + 4));
        acc6 = _mm256_loadu_pd(o.add(3 * ldo));
        acc7 = _mm256_loadu_pd(o.add(3 * ldo + 4));
    }
    for kk in 0..klen {
        let b_row = b.as_ptr().add(kk * ldb);
        let b0 = _mm256_loadu_pd(b_row);
        let b1 = _mm256_loadu_pd(b_row.add(4));
        let ap = apack.as_ptr().add(kk * MR);
        let a0 = _mm256_set1_pd(*ap);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(a0, b0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(a0, b1));
        let a1 = _mm256_set1_pd(*ap.add(1));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a1, b0));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(a1, b1));
        let a2 = _mm256_set1_pd(*ap.add(2));
        acc4 = _mm256_add_pd(acc4, _mm256_mul_pd(a2, b0));
        acc5 = _mm256_add_pd(acc5, _mm256_mul_pd(a2, b1));
        let a3 = _mm256_set1_pd(*ap.add(3));
        acc6 = _mm256_add_pd(acc6, _mm256_mul_pd(a3, b0));
        acc7 = _mm256_add_pd(acc7, _mm256_mul_pd(a3, b1));
    }
    let o = out.as_mut_ptr();
    _mm256_storeu_pd(o, acc0);
    _mm256_storeu_pd(o.add(4), acc1);
    _mm256_storeu_pd(o.add(ldo), acc2);
    _mm256_storeu_pd(o.add(ldo + 4), acc3);
    _mm256_storeu_pd(o.add(2 * ldo), acc4);
    _mm256_storeu_pd(o.add(2 * ldo + 4), acc5);
    _mm256_storeu_pd(o.add(3 * ldo), acc6);
    _mm256_storeu_pd(o.add(3 * ldo + 4), acc7);
}

/// AVX2 narrow-tile micro-kernel: `panels` full-height packed micro-panels
/// (`panels * MR` rows, back to back at a stride of `klen * MR`) × `J < NR`
/// columns, `P` micro-panels at a time (then one at a time), so `J * P`
/// independent accumulator chains overlap their add latency.
///
/// # Safety
/// Caller must ensure the `avx2` target feature is available. Slice bounds
/// are asserted on entry: `apack` covers `panels` packed micro-panels of
/// `klen` k-steps, `b` holds `klen` rows of `J` columns at row stride `ldb`
/// and `out` holds `panels * MR` rows of `J` columns at row stride `ldo`;
/// every raw load below stays inside those asserted ranges.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// analyzer:unsafe(invariant): bounds asserted on entry (apack/b/out cover every panel); raw loads stay within the asserted slice ranges and the output goes through checked indexing
unsafe fn kernel_narrow_avx2<const J: usize, const P: usize>(
    apack: &[f64],
    klen: usize,
    panels: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
) {
    assert!(apack.len() >= panels * klen * MR);
    assert!(panels == 0 || klen == 0 || (klen - 1) * ldb + J <= b.len());
    assert!(panels == 0 || (panels * MR - 1) * ldo + J <= out.len());
    let mut p = 0;
    while p + P <= panels {
        narrow_panels::<J, P>(apack, klen, p, b, ldb, out, ldo);
        p += P;
    }
    while p < panels {
        narrow_panels::<J, 1>(apack, klen, p, b, ldb, out, ldo);
        p += 1;
    }
}

/// `P` micro-panels from panel `p0` of [`kernel_narrow_avx2`]: one
/// `__m256d` accumulator per (column, micro-panel) holding the panel's 4
/// rows in its 4 lanes, seeded from `out` and written back once per
/// k-panel. Each k step multiplies each packed A column
/// `apack[.. + kk*MR..+4]` by a broadcast `b[kk][j]` and adds, as two
/// separately rounded operations — per lane the exact sequence of the
/// scalar [`kernel_edge`].
///
/// # Safety
/// Caller must ensure the `avx2` target feature is available and that
/// panels `p0..p0 + P` lie inside the ranges [`kernel_narrow_avx2`]
/// asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
// analyzer:ordered: lane-parallel across the MR rows, ascending-k per lane with separate mul+add — the scalar kernel_edge order
// analyzer:unsafe(invariant): the caller asserted the bounds of panels p0..p0+P; no FMA so rounding matches the scalar reference
unsafe fn narrow_panels<const J: usize, const P: usize>(
    apack: &[f64],
    klen: usize,
    p0: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
) {
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_set_pd,
        _mm256_storeu_pd,
    };
    let row = |p: usize, ii: usize| (p0 + p) * MR + ii;
    let mut acc = [[_mm256_set1_pd(0.0); P]; J];
    for (j, acc_j) in acc.iter_mut().enumerate() {
        for (p, acc_jp) in acc_j.iter_mut().enumerate() {
            let o = |ii| out[row(p, ii) * ldo + j];
            *acc_jp = _mm256_set_pd(o(3), o(2), o(1), o(0));
        }
    }
    let ap = apack.as_ptr().add(p0 * klen * MR);
    for kk in 0..klen {
        let a: [__m256d; P] =
            std::array::from_fn(|p| _mm256_loadu_pd(ap.add(p * klen * MR + kk * MR)));
        let b_row = b.as_ptr().add(kk * ldb);
        for (j, acc_j) in acc.iter_mut().enumerate() {
            let bj = _mm256_set1_pd(*b_row.add(j));
            for (acc_jp, &a_p) in acc_j.iter_mut().zip(&a) {
                *acc_jp = _mm256_add_pd(*acc_jp, _mm256_mul_pd(a_p, bj));
            }
        }
    }
    let mut lanes = [0.0f64; MR];
    for (j, acc_j) in acc.iter().enumerate() {
        for (p, acc_jp) in acc_j.iter().enumerate() {
            _mm256_storeu_pd(lanes.as_mut_ptr(), *acc_jp);
            for (ii, &v) in lanes.iter().enumerate() {
                out[row(p, ii) * ldo + j] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{matmul_into, matmul_on, matmul_simple};
    use crate::rng::SeedRng;

    fn random(m: usize, n: usize, rng: &mut SeedRng) -> Vec<f64> {
        (0..m * n).map(|_| rng.uniform_range(-2.0, 2.0)).collect()
    }

    /// The analyzer-mandated cross-check region: each SIMD backend's product
    /// must be bit-identical to the scalar reference on every shape class
    /// the blocked sweep produces (pair tiles, a leftover single panel,
    /// narrow tiles, i/j edges, multiple k-panels).
    #[test]
    fn simd_matches_simple_bitwise() {
        let mut rng = SeedRng::new(41);
        for &(m, k, n) in &[
            (4, 8, 8),
            (17, 33, 19),
            (40, 64, 72),
            (65, 13, 9),
            (9, crate::kernels::KC + 37, 24),
            (128, 128, 128),
            (64, 32, 2),
            (13, 40, 7),
            (MR, crate::kernels::KC + 37, 1),
            (64, 16, 40),
        ] {
            let a = random(m, k, &mut rng);
            let b = random(k, n, &mut rng);
            let mut simple = vec![0.0; m * n];
            matmul_simple(&a, &b, &mut simple, m, k, n);
            for backend in [KernelBackend::Simd, KernelBackend::Avx512] {
                let mut simd = vec![0.0; m * n];
                matmul_on(backend, &a, &b, &mut simd, m, k, n);
                for (x, y) in simple.iter().zip(&simd) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{backend} {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn pair_tile_equals_two_full_tiles_at_either_panel_offset() {
        // Row-major B (second panel NR to the right) and a packed Bᵀ block
        // (second panel one packed panel further on), through the safe
        // wrapper, against the AVX2 full tile run once per panel.
        let mut rng = SeedRng::new(45);
        let klen = 37;
        let apack = random(klen, MR, &mut rng);
        for (ldb, hi) in [(2 * NR + 3, NR), (NR, klen * NR)] {
            let b = random(1, (klen - 1) * ldb + hi + NR, &mut rng);
            let ldo = 2 * NR + 5;
            let seed = random(MR, ldo, &mut rng);
            let mut pair = seed.clone();
            kernel_pair_simd(&apack, klen, &b, ldb, hi, &mut pair, ldo);
            let mut twice = seed;
            kernel_full_simd(&apack, klen, &b, ldb, &mut twice, ldo);
            kernel_full_simd(&apack, klen, &b[hi..], ldb, &mut twice[NR..], ldo);
            assert!(pair.iter().zip(&twice).all(|(x, y)| x.to_bits() == y.to_bits()), "{ldb}/{hi}");
        }
    }

    #[test]
    fn simd_matches_blocked_dispatch_entry() {
        // Whatever backend the global dispatch resolves, the facade entry
        // must agree bitwise with each explicit backend.
        let mut rng = SeedRng::new(43);
        let (m, k, n) = (31, 47, 29);
        let a = random(m, k, &mut rng);
        let b = random(k, n, &mut rng);
        let mut via_facade = vec![0.0; m * n];
        matmul_into(&a, &b, &mut via_facade, m, k, n);
        for backend in KernelBackend::ALL {
            let mut via_backend = vec![0.0; m * n];
            matmul_on(backend, &a, &b, &mut via_backend, m, k, n);
            assert_eq!(via_facade, via_backend, "{backend}");
        }
    }

    #[test]
    fn degenerate_shapes_are_covered() {
        for &(m, k, n) in &[(0, 5, 7), (5, 0, 7), (1, 1, 1), (3, 4, 0)] {
            let a = vec![1.0; m * k];
            let b = vec![1.0; k * n];
            let mut simple = vec![0.0; m * n];
            matmul_simple(&a, &b, &mut simple, m, k, n);
            for backend in [KernelBackend::Simd, KernelBackend::Avx512] {
                let mut simd = vec![0.0; m * n];
                matmul_on(backend, &a, &b, &mut simd, m, k, n);
                assert_eq!(simple, simd, "{backend} {m}x{k}x{n}");
            }
        }
    }
}

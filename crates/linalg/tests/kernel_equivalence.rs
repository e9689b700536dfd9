//! Cross-backend equivalence property suite.
//!
//! The dispatch facade promises that [`KernelBackend::Scalar`],
//! [`KernelBackend::Simd`] (the AVX2 tiles) and [`KernelBackend::Avx512`]
//! (the AVX2 tiles plus the 4×16 pair tile) are the *same arithmetic* — not
//! merely close. This suite drives every backend the host can run over
//! random shapes (including degenerate ones: `0×N`, `1×1`, `K = 0`, and
//! tails that are not multiples of the `MR`/`NR`/`KC` tile sizes) and
//! asserts both the ≤ 1e-10 numeric bound the issue asks for and the
//! stronger bit-for-bit equality the kernels are engineered to provide. A
//! backend the host lacks is reported as skipped on stderr, not run: every
//! case pins each tile set in turn, so the AVX2 tiles stay covered on a
//! host that detects AVX-512.
//!
//! The backend-explicit entry point (`matmul_on`) is exercised directly so
//! the property runs do not race other tests over the process-global
//! dispatch; the global facade (`Matrix::matmul_into` under
//! `set_active_backend`) is covered once under a local mutex.
//!
//! The backprop products `Aᵀ·B` (`matmul_tn_into`) and `A·Bᵀ`
//! (`matmul_nt_into`) run the same macro-kernel on whichever backend the
//! global dispatch holds, so they are checked under the mutex with each
//! backend pinned in turn, bitwise against an explicit transpose followed
//! by [`matmul_simple`] and against their own simple loops.
//!
//! Narrow products (`n < NR`, the class head's `n = C`) run narrow tiles
//! over row blocks of several micro-panels, products at least `2·NR` wide
//! run pair tiles on AVX-512, and `A·Bᵀ` packs `Bᵀ` a column block at a
//! time; each gets fixed cases and properties of its own below. The pack
//! buffers are one per-thread scratch that is never cleared, so one case
//! fills it with NaN and then checks tail-heavy products against a fresh
//! thread.
//!
//! The GDA scoring kernel (`Cholesky::mahalanobis_panel_into`, the forward
//! substitution over a panel of `PANEL` points) is one plain-Rust loop for
//! every backend, held to the same standard: every point of a batch split
//! into panels (a partial last one included) must equal the `dot` of its
//! own `solve_lower`, bit for bit, with the solve scratch refilled with NaN
//! between panels, and NaN wherever that scalar path gives NaN for rows
//! carrying NaN or ±∞.

use std::sync::{Mutex, Once};

use faction_linalg::kernels::{
    matmul_nt_into, matmul_nt_simple, matmul_on, matmul_simple, matmul_tn_into, matmul_tn_simple,
    transpose_into, KC, MR, NR,
};
use faction_linalg::cholesky::PANEL;
use faction_linalg::{dispatch, vector, Cholesky, KernelBackend, Matrix, SeedRng};
use proptest::prelude::*;

/// Guards the process-global backend so facade tests never interleave.
static GLOBAL_BACKEND: Mutex<()> = Mutex::new(());

fn random_mat(rows: usize, cols: usize, rng: &mut SeedRng) -> Vec<f64> {
    (0..rows * cols).map(|_| rng.uniform_range(-3.0, 3.0)).collect()
}

/// Every backend whose own tiles run on this host, narrowest first. The
/// rest are named on stderr as skipped, once per process (pinning one would
/// only re-run a narrower backend's tiles through the fallback).
fn runnable_backends() -> Vec<KernelBackend> {
    static REPORT_SKIPPED: Once = Once::new();
    let (run, skip): (Vec<_>, Vec<_>) = KernelBackend::ALL.into_iter().partition(|b| b.available());
    REPORT_SKIPPED.call_once(|| {
        for b in skip {
            eprintln!("kernel_equivalence: skipped backend {b}: this host lacks its CPU features");
        }
    });
    run
}

/// Runs one `(m, k, n)` product through every runnable backend and checks
/// both the 1e-10 bound and exact bit equality against the i-k-j reference.
fn assert_all_backends_agree(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = SeedRng::new(seed);
    let a = random_mat(m, k, &mut rng);
    let b = random_mat(k, n, &mut rng);
    let mut reference = vec![0.0; m * n];
    matmul_simple(&a, &b, &mut reference, m, k, n);

    for backend in runnable_backends() {
        let mut got = vec![0.0; m * n];
        matmul_on(backend, &a, &b, &mut got, m, k, n);
        for (i, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
            assert!((r - g).abs() <= 1e-10, "{backend} {m}x{k}x{n} elem {i}: {r} vs {g}");
            assert_eq!(
                r.to_bits(),
                g.to_bits(),
                "{backend} {m}x{k}x{n} elem {i} not bit-identical"
            );
        }
    }
}

fn assert_bits_eq(want: &[f64], got: &[f64], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.to_bits(), g.to_bits(), "{what} elem {i}: {w} vs {g}");
    }
}

/// `out = aᵀ · b` (`a` is `k×m`) through the facade kernel under each
/// backend, bitwise against transpose-then-[`matmul_simple`] and the k-outer
/// axpy reference. The caller holds [`GLOBAL_BACKEND`].
fn check_tn(a: &[f64], b: &[f64], k: usize, m: usize, n: usize) {
    let mut at = vec![0.0; m * k];
    transpose_into(a, &mut at, k, m);
    let mut want = vec![0.0; m * n];
    matmul_simple(&at, b, &mut want, m, k, n);
    let mut simple = vec![0.0; m * n];
    matmul_tn_simple(a, b, &mut simple, k, m, n);
    assert_bits_eq(&want, &simple, &format!("tn simple {k}x{m}x{n}"));
    for backend in runnable_backends() {
        dispatch::set_active_backend(backend);
        let mut got = vec![0.0; m * n];
        matmul_tn_into(a, b, &mut got, k, m, n);
        assert_eq!(dispatch::active_backend(), backend);
        assert_bits_eq(&want, &got, &format!("tn {backend} {k}x{m}x{n}"));
    }
}

/// `out = a · bᵀ` (`b` is `n×k`) through the facade kernel under each
/// backend, bitwise against the row·row dot reference and against
/// transpose-then-[`matmul_simple`] accumulated onto `-0.0` (the identity
/// the dot's `Sum` folds from). The caller holds [`GLOBAL_BACKEND`].
fn check_nt(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    let mut bt = vec![0.0; k * n];
    transpose_into(b, &mut bt, n, k);
    let mut want = vec![-0.0; m * n];
    matmul_simple(a, &bt, &mut want, m, k, n);
    let mut row_dot = vec![f64::NAN; m * n];
    matmul_nt_simple(a, b, &mut row_dot, m, k, n);
    assert_bits_eq(&want, &row_dot, &format!("nt row-dot {m}x{k}x{n}"));
    for backend in runnable_backends() {
        dispatch::set_active_backend(backend);
        // Stale output contents must not leak: the product overwrites.
        let mut got = vec![f64::NAN; m * n];
        matmul_nt_into(a, b, &mut got, m, k, n);
        assert_eq!(dispatch::active_backend(), backend);
        assert_bits_eq(&want, &got, &format!("nt {backend} {m}x{k}x{n}"));
    }
}

/// Runs [`check_tn`] and [`check_nt`] on random operands of one shape,
/// restoring the global backend afterwards.
fn check_transposed_products(m: usize, k: usize, n: usize, seed: u64) {
    let _guard = GLOBAL_BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    let prev = dispatch::active_backend();
    let mut rng = SeedRng::new(seed);
    let at = random_mat(k, m, &mut rng);
    let b = random_mat(k, n, &mut rng);
    check_tn(&at, &b, k, m, n);
    let a = random_mat(m, k, &mut rng);
    let bt = random_mat(n, k, &mut rng);
    check_nt(&a, &bt, m, k, n);
    dispatch::set_active_backend(prev);
}

#[test]
fn transposed_products_match_explicit_transpose_at_training_shapes() {
    // The `[in, 64, 32, C]` MLP at mini-batch 64: per layer `fan_in →
    // fan_out`, the weight gradient is `xᵀ·δ` (k = 64 rows, m = fan_in,
    // n = fan_out) and the input gradient is `δ·wᵀ` (m = 64, k = fan_out,
    // n = fan_in).
    for (s, &fan_in) in [16usize, 32, 64, 128].iter().enumerate() {
        for (t, &fan_out) in [2usize, 32, 64].iter().enumerate() {
            let seed = 100 + (s * 3 + t) as u64;
            let _guard = GLOBAL_BACKEND.lock().unwrap_or_else(|e| e.into_inner());
            let prev = dispatch::active_backend();
            let mut rng = SeedRng::new(seed);
            let x = random_mat(64, fan_in, &mut rng);
            let delta = random_mat(64, fan_out, &mut rng);
            let w = random_mat(fan_in, fan_out, &mut rng);
            check_tn(&x, &delta, 64, fan_in, fan_out);
            check_nt(&delta, &w, 64, fan_out, fan_in);
            dispatch::set_active_backend(prev);
        }
    }
}

#[test]
fn transposed_products_match_explicit_transpose_on_tile_and_panel_tails() {
    // m and n off the MR/NR grid, and k spanning one, two and three
    // k-panels.
    for (i, &(m, k, n)) in [
        (4 * MR + 1, 29, 5 * NR + 3),
        (MR + 3, 70, NR + 1),
        (63, 17, 23),
        (5, 70, 9),
        (9, KC + 37, 24),
        (2 * MR + 2, 2 * KC + 5, 2 * NR + 7),
        (1, KC + 1, NR),
    ]
    .iter()
    .enumerate()
    {
        check_transposed_products(m, k, n, 200 + i as u64);
    }
}

#[test]
fn nt_seed_keeps_zero_signs_of_the_row_dot() {
    // All-zero and negative-zero rows on both sides: `-0.0 + (-0.0)` stays
    // `-0.0` while `0.0 + (-0.0)` is `+0.0`, so this pins the `-0.0`
    // accumulator seed against today's row·row dot, not just magnitudes.
    let _guard = GLOBAL_BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    let prev = dispatch::active_backend();
    let (m, k, n) = (3 * MR + 1, 37, 3 * NR + 2);
    let mut rng = SeedRng::new(300);
    let mut a = random_mat(m, k, &mut rng);
    let mut b = random_mat(n, k, &mut rng);
    a[..k].fill(0.0);
    a[k..2 * k].fill(-0.0);
    for (kk, v) in a[5 * k..6 * k].iter_mut().enumerate() {
        *v = if kk % 2 == 0 { -0.0 } else { 0.0 };
    }
    b[..k].fill(-0.0);
    b[3 * k..4 * k].fill(0.0);
    // Negative entries against a positive-zero row give `-0.0` products.
    for v in &mut b[9 * k..10 * k] {
        *v = -v.abs();
    }
    check_nt(&a, &b, m, k, n);
    // Columns 0 and 3 sit in the first pair tile on AVX-512.
    for backend in runnable_backends() {
        dispatch::set_active_backend(backend);
        let mut got = vec![f64::NAN; m * n];
        matmul_nt_into(&a, &b, &mut got, m, k, n);
        assert!(got[0].is_sign_negative(), "{backend}: (+0)·(-0) row sums to -0.0 like the dot");
        assert!(
            got[n + 3].is_sign_negative(),
            "{backend}: (-0)·(+0) row sums to -0.0 like the dot"
        );
    }
    dispatch::set_active_backend(prev);
}

#[test]
fn nt_seed_keeps_zero_signs_through_the_pair_tile() {
    // Exactly two panels wide and one k-panel deep, so on AVX-512 every
    // signed zero of the output passes through the pair tile: zero rows of
    // A against zero, positive and negative columns of `Bᵀ` in both panels.
    let _guard = GLOBAL_BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    let prev = dispatch::active_backend();
    let (m, k, n) = (2 * MR, 29, 2 * NR);
    let mut rng = SeedRng::new(310);
    let mut a = random_mat(m, k, &mut rng);
    let mut b = random_mat(n, k, &mut rng);
    a[..k].fill(0.0);
    a[k..2 * k].fill(-0.0);
    for (col, sign) in [(0, 0), (NR, 0), (1, 1), (NR + 1, 1), (2, -1), (2 * NR - 1, -1)] {
        for v in &mut b[col * k..(col + 1) * k] {
            *v = match sign {
                0 => -0.0,
                1 => v.abs(),
                _ => -v.abs(),
            };
        }
    }
    check_nt(&a, &b, m, k, n);
    for backend in runnable_backends() {
        dispatch::set_active_backend(backend);
        let mut got = vec![f64::NAN; m * n];
        matmul_nt_into(&a, &b, &mut got, m, k, n);
        for col in [0, NR] {
            assert!(got[col].is_sign_negative(), "{backend} col {col}: (+0)·(-0) sums to -0.0");
            assert!(got[n + col].is_sign_positive(), "{backend} col {col}: (-0)·(-0) sums to +0.0");
        }
        for col in [1, NR + 1] {
            assert!(
                got[n + col].is_sign_negative(),
                "{backend} col {col}: (-0)·(pos) sums to -0.0"
            );
        }
        for col in [2, 2 * NR - 1] {
            assert!(got[col].is_sign_negative(), "{backend} col {col}: (+0)·(neg) sums to -0.0");
        }
    }
    dispatch::set_active_backend(prev);
}

#[test]
fn pair_tile_seams_match_the_simple_loops_in_every_layout() {
    // Widths of two panels (one pair), three (a pair plus a leftover
    // single panel), five and eight panels; heights with and without a
    // short row tail (`ilen < MR`); depths inside one k-panel and across
    // two (`k > KC`).
    for (s, &n) in [2 * NR, 3 * NR, 5 * NR, 8 * NR].iter().enumerate() {
        for (t, &m) in [64, 2 * MR + 3].iter().enumerate() {
            for (u, &k) in [32, KC + 37].iter().enumerate() {
                let seed = 700 + (s * 4 + t * 2 + u) as u64;
                assert_all_backends_agree(m, k, n, seed);
                check_transposed_products(m, k, n, seed);
            }
        }
    }
}

#[test]
fn nt_column_block_with_an_odd_panel_count_pairs_then_finishes_single() {
    // At k = 100 a packed `Bᵀ` column block holds 5 panels, so each block
    // runs two pair tiles and one single full tile; n = 11 panels + 3 is two
    // whole blocks and a last block of one full and one narrow panel.
    // k = 2·KC + 100 hits the same block width in its last k-panel.
    for (i, &(m, k, n)) in
        [(13, 100, 11 * NR + 3), (64, 100, 10 * NR), (MR + 1, 2 * KC + 100, 6 * NR)]
            .iter()
            .enumerate()
    {
        check_transposed_products(m, k, n, 800 + i as u64);
    }
}

#[test]
fn narrow_products_match_the_simple_loops_in_every_layout() {
    // Every width below one register tile, at heights of one tile, two
    // and three tiles plus a short tail (fewer full micro-panels than a
    // narrow kernel carries at once), five tiles plus a tail (one whole
    // row block and a second one), and the training batch; k = 32 is the head's
    // depth and KC + 37 keeps the one-tile-high products above the blocked
    // break-even while spanning two k-panels.
    for n in 1..NR {
        for &m in &[MR, 2 * MR + 1, 3 * MR + 2, 5 * MR + 3, 64] {
            for &k in &[32, KC + 37] {
                let seed = (n * 1000 + m * 10 + k) as u64;
                assert_all_backends_agree(m, k, n, seed);
                check_transposed_products(m, k, n, seed);
            }
        }
    }
}

#[test]
fn nt_matches_the_row_dot_at_depths_one_to_three() {
    // The class head's input gradient is `δ·wᵀ` with k = C = 2.
    for k in 1..=3 {
        for &(m, n) in &[(64, 32), (64, 16), (2 * MR + 1, 5 * NR + 3), (64, NR - 1)] {
            check_transposed_products(m, k, n, (400 + k * 100 + n) as u64);
        }
    }
}

#[test]
fn nt_spans_several_column_blocks_and_k_panels() {
    // At a full k-panel a packed `Bᵀ` block is only a few register tiles
    // wide, so these widths split every k-panel into several blocks, the
    // last one narrow.
    for (i, &(m, k, n)) in
        [(13, KC + 37, 120), (MR, 2 * KC, 5 * NR + 3), (64, KC + 1, 17 * NR + 5)].iter().enumerate()
    {
        check_transposed_products(m, k, n, 500 + i as u64);
    }
}

#[test]
fn nt_seed_keeps_zero_signs_on_a_narrow_tile() {
    // The zero-sign pin of `nt_seed_keeps_zero_signs_of_the_row_dot` on a
    // product narrower than one register tile, so every signed zero passes
    // through the narrow kernel.
    let _guard = GLOBAL_BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    let prev = dispatch::active_backend();
    let (m, k, n) = (3 * MR, 37, 3);
    let mut rng = SeedRng::new(600);
    let mut a = random_mat(m, k, &mut rng);
    let mut b = random_mat(n, k, &mut rng);
    a[..k].fill(0.0);
    a[k..2 * k].fill(-0.0);
    b[..k].fill(-0.0);
    for v in &mut b[k..2 * k] {
        *v = v.abs();
    }
    for v in &mut b[2 * k..3 * k] {
        *v = -v.abs();
    }
    check_nt(&a, &b, m, k, n);
    for backend in runnable_backends() {
        dispatch::set_active_backend(backend);
        let mut got = vec![f64::NAN; m * n];
        matmul_nt_into(&a, &b, &mut got, m, k, n);
        assert!(got[0].is_sign_negative(), "{backend}: (+0)·(-0) sums to -0.0 like the dot");
        assert!(got[2].is_sign_negative(), "{backend}: (+0)·(neg) sums to -0.0 like the dot");
        assert!(got[n].is_sign_positive(), "{backend}: (-0)·(-0) sums to +0.0 like the dot");
        assert!(got[n + 1].is_sign_negative(), "{backend}: (-0)·(pos) sums to -0.0 like the dot");
    }
    dispatch::set_active_backend(prev);
}

/// The three products of one shape class, `(m, k, n)` in `A·B` terms: `A·B`
/// on `backend`, then `Aᵀ·B` and `A·Bᵀ` on the global dispatch (which the
/// caller pins to `backend`), each into an output pre-filled the way its
/// entry point expects (`A·Bᵀ` overwrites, so its output starts NaN).
fn three_products(
    backend: KernelBackend,
    ops: &[Vec<f64>; 4],
    m: usize,
    k: usize,
    n: usize,
) -> [Vec<f64>; 3] {
    let [a, b, at, bt] = ops;
    let mut nn = vec![0.0; m * n];
    matmul_on(backend, a, b, &mut nn, m, k, n);
    let mut tn = vec![0.0; m * n];
    matmul_tn_into(at, b, &mut tn, k, m, n);
    let mut nt = vec![f64::NAN; m * n];
    matmul_nt_into(a, bt, &mut nt, m, k, n);
    [nn, tn, nt]
}

#[test]
fn reused_pack_scratch_carries_no_state_between_products() {
    // Each thread packs into one reused scratch that is never cleared. A
    // product over several k-panels, narrow enough to pack whole row
    // blocks and, as `A·Bᵀ`, wide enough to pack several column blocks,
    // fills it with NaN. Smaller products with short (`ilen < MR`) and
    // narrow (`jlen < NR`) tails follow on the same thread: any lane they
    // read without writing it first would turn their output NaN. Each must
    // equal its simple reference and the same product run first on a
    // fresh thread, whose scratch no product has touched.
    let _guard = GLOBAL_BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    let prev = dispatch::active_backend();
    let small = [
        (2 * MR + 3, 40, NR + 3),
        (MR + 1, KC + 5, 3),
        (4 * MR + 3, 50, 2),
        (MR + 2, 70, 2 * NR + 5),
    ];
    let mut rng = SeedRng::new(900);
    let operands: Vec<[Vec<f64>; 4]> = small
        .iter()
        .map(|&(m, k, n)| {
            let (a, b) = (random_mat(m, k, &mut rng), random_mat(k, n, &mut rng));
            [a, b, random_mat(k, m, &mut rng), random_mat(n, k, &mut rng)]
        })
        .collect();
    for backend in runnable_backends() {
        dispatch::set_active_backend(backend);
        let fresh: Vec<[Vec<f64>; 3]> = small
            .iter()
            .zip(&operands)
            .map(|(&(m, k, n), ops)| {
                let run = || three_products(backend, ops, m, k, n);
                std::thread::scope(|scope| scope.spawn(run).join()).expect("fresh-thread product")
            })
            .collect();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let filling = [(6 * MR + 1, 2 * KC + 13, 3), (3 * MR, 2 * KC + 13, 7 * NR + 5)];
                for (m, k, n) in filling {
                    let nan = |len| vec![f64::NAN; len];
                    let ops = [nan(m * k), nan(k * n), nan(k * m), nan(n * k)];
                    three_products(backend, &ops, m, k, n);
                }
                for ((&(m, k, n), ops), fresh) in small.iter().zip(&operands).zip(&fresh) {
                    let [a, b, at, bt] = ops;
                    let mut want = [vec![0.0; m * n], vec![0.0; m * n], vec![f64::NAN; m * n]];
                    matmul_simple(a, b, &mut want[0], m, k, n);
                    matmul_tn_simple(at, b, &mut want[1], k, m, n);
                    matmul_nt_simple(a, bt, &mut want[2], m, k, n);
                    let got = three_products(backend, ops, m, k, n);
                    let results = want.iter().zip(&got).zip(fresh);
                    for (layout, ((w, g), f)) in ["nn", "tn", "nt"].iter().zip(results) {
                        let what = format!("{layout} {backend} {m}x{k}x{n}");
                        assert_bits_eq(w, g, &format!("{what} after filling"));
                        assert_bits_eq(f, g, &format!("{what} against a fresh thread"));
                    }
                }
            });
        });
    }
    dispatch::set_active_backend(prev);
}

proptest! {
    #[test]
    fn narrow_products_agree_under_every_backend(
        m in 1usize..80,
        k in 1usize..70,
        n in 1usize..NR,
        seed in 0u64..1000,
    ) {
        assert_all_backends_agree(m, k, n, seed);
        check_transposed_products(m, k, n, seed);
    }

    #[test]
    fn shallow_nt_agrees_under_every_backend(
        m in MR..80,
        k in 1usize..4,
        n in 1usize..150,
        seed in 0u64..1000,
    ) {
        check_transposed_products(m, k, n, seed);
    }

    #[test]
    fn pair_tile_seams_agree_under_every_backend(
        m in 1usize..40,
        k in 1usize..120,
        panels in 2usize..7,
        tail in 0usize..NR,
        seed in 0u64..1000,
    ) {
        // Two to six full panels (pairs, plus a single one when odd) and a
        // narrow tail; k up to 119 so `A·Bᵀ` column blocks run from 4
        // panels wide up, odd counts included.
        let n = panels * NR + tail;
        assert_all_backends_agree(m, k, n, seed);
        check_transposed_products(m, k, n, seed);
    }

    #[test]
    fn gemm_backends_agree_on_random_shapes(
        m in 1usize..80,
        k in 1usize..70,
        n in 1usize..60,
        seed in 0u64..1000,
    ) {
        assert_all_backends_agree(m, k, n, seed);
    }

    #[test]
    fn gemm_backends_agree_on_tile_tails(
        dm in 0usize..MR,
        dk in 0usize..7,
        dn in 0usize..NR,
        seed in 0u64..1000,
    ) {
        // Shapes straddling every blocking boundary: one-past and one-short
        // of the register tile (MR × NR) and the k-panel (KC).
        assert_all_backends_agree(16 * MR + dm + 1, dk + 1, NR + dn + 1, seed);
        assert_all_backends_agree(MR + dm, KC + dk, NR + dn + 1, seed.wrapping_add(1));
    }

    #[test]
    fn transposed_products_and_matvec_agree_under_every_backend(
        m in 1usize..80,
        k in 1usize..70,
        n in 1usize..60,
        seed in 0u64..1000,
    ) {
        // The NN property's shape range, so most draws take the blocked
        // macro-kernel rather than the small-shape loops.
        check_transposed_products(m, k, n, seed);
        // matvec_into is part of the public product surface too: pin that
        // its result does not depend on the active backend.
        let _guard = GLOBAL_BACKEND.lock().unwrap_or_else(|e| e.into_inner());
        let prev = dispatch::active_backend();
        let mut rng = SeedRng::new(seed);
        let a = Matrix::from_vec(m, k, random_mat(m, k, &mut rng)).unwrap();
        let x = random_mat(k, 1, &mut rng);
        let mut results = Vec::new();
        for backend in runnable_backends() {
            dispatch::set_active_backend(backend);
            let mut mv = vec![0.0; m];
            a.matvec_into(&x, &mut mv).unwrap();
            results.push(mv);
        }
        dispatch::set_active_backend(prev);
        for other in &results[1..] {
            prop_assert!(results[0].iter().zip(other).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}

#[test]
fn degenerate_shapes_agree_across_backends() {
    // 0×N, 1×1, K = 0, empty output — every backend must fall through the
    // same small-shape path without panicking.
    for &(m, k, n) in &[
        (0usize, 5usize, 7usize),
        (5, 0, 7),
        (0, 0, 0),
        (1, 1, 1),
        (3, 4, 0),
        (0, 7, 0),
        (1, KC + 3, 1),
    ] {
        assert_all_backends_agree(m, k, n, 99);
    }
}

#[test]
fn facade_dispatch_honors_every_backend_bitwise() {
    // Matrix::matmul_into through the *global* dispatch, each backend in
    // turn, against the naive product — under the mutex so concurrent tests
    // cannot flip the backend mid-check.
    let _guard = GLOBAL_BACKEND.lock().unwrap();
    let prev = dispatch::active_backend();
    let mut rng = SeedRng::new(7);
    let (m, k, n) = (70, 33, 29);
    let a = Matrix::from_vec(m, k, random_mat(m, k, &mut rng)).unwrap();
    let b = Matrix::from_vec(k, n, random_mat(k, n, &mut rng)).unwrap();
    let mut reference = vec![0.0; m * n];
    matmul_simple(a.as_slice(), b.as_slice(), &mut reference, m, k, n);
    for backend in runnable_backends() {
        dispatch::set_active_backend(backend);
        let mut out = Matrix::zeros(m, n);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(dispatch::active_backend(), backend);
        for (r, g) in reference.iter().zip(out.as_slice()) {
            assert_eq!(r.to_bits(), g.to_bits(), "backend {backend}");
        }
    }
    dispatch::set_active_backend(prev);
}

/// A random SPD factor of dimension `d`, well enough conditioned that the
/// solves stay finite.
fn random_factor(d: usize, rng: &mut SeedRng) -> Cholesky {
    let g = Matrix::from_vec(d, d, random_mat(d, d, rng)).unwrap();
    let mut spd = g.matmul(&g.transpose()).unwrap();
    spd.add_diagonal(1.0);
    Cholesky::factor(&spd).unwrap()
}

/// Scores the `n` rows of `points` (`n × d`) panel by panel, as the GDA
/// scorer does (transposed, lanes past the last point zeroed),
/// with the solve scratch refilled with NaN before every panel, and checks
/// each point's distance against `solve_lower` + `dot` of `x − μ`: equal
/// bits, or NaN on both sides.
fn check_panels(chol: &Cholesky, mean: &[f64], points: &[f64], n: usize) {
    let d = mean.len();
    let mut xt = vec![[f64::NAN; PANEL]; d];
    let mut y = vec![[f64::NAN; PANEL]; d];
    for row0 in (0..n).step_by(PANEL) {
        let width = PANEL.min(n - row0);
        for (i, row) in xt.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = if j < width { points[(row0 + j) * d + i] } else { 0.0 };
            }
        }
        for row in y.iter_mut() {
            row.fill(f64::NAN);
        }
        let mut out = [f64::NAN; PANEL];
        chol.mahalanobis_panel_into(mean, &xt, &mut y, &mut out);
        for (j, &got) in out[..width].iter().enumerate() {
            let x = &points[(row0 + j) * d..(row0 + j + 1) * d];
            let centered: Vec<f64> = x.iter().zip(mean).map(|(x, m)| x - m).collect();
            let solved = chol.solve_lower(&centered).unwrap();
            let want = vector::dot(&solved, &solved);
            let what = format!("d={d} n={n} point {}", row0 + j);
            if want.is_nan() {
                assert!(got.is_nan(), "{what}: {got}, scalar NaN");
            } else {
                assert_eq!(want.to_bits(), got.to_bits(), "{what}: {want} vs {got}");
            }
        }
    }
}

#[test]
fn mahalanobis_panels_match_the_per_point_solve() {
    let mut rng = SeedRng::new(61);
    for d in [1, 2, 3, 5, 16, 32, 33, 64] {
        let chol = random_factor(d, &mut rng);
        let mean = random_mat(1, d, &mut rng);
        for n in [1, 31, 32, 33, 819] {
            let points = random_mat(n, d, &mut rng);
            check_panels(&chol, &mean, &points, n);
        }
    }
}

#[test]
fn mahalanobis_panels_give_nan_where_the_per_point_solve_does() {
    // Rows carrying NaN or ±∞ in one coordinate (the first, a middle and
    // the last), among finite rows in the same panels.
    let mut rng = SeedRng::new(62);
    for d in [1, 3, 16, 32] {
        let chol = random_factor(d, &mut rng);
        let mean = random_mat(1, d, &mut rng);
        let n = 2 * PANEL + 5;
        let mut points = random_mat(n, d, &mut rng);
        for (r, poison) in [(0, f64::NAN), (7, f64::INFINITY), (40, f64::NEG_INFINITY), (n - 1, f64::NAN)]
        {
            for (slot, at) in [0, d / 2, d - 1].into_iter().enumerate() {
                let row = (r + slot * 3).min(n - 1);
                points[row * d + at] = poison;
            }
        }
        check_panels(&chol, &mean, &points, n);
    }
}

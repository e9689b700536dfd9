//! Packed/blocked dense kernels behind [`crate::Matrix`]'s hot operations.
//!
//! The FACTION selection loop multiplies feature blocks (hundreds of rows,
//! 16–128 columns) every round, and every retrain step runs a forward
//! `A·B` plus the two backprop products `Aᵀ·B` (weight gradient) and
//! `A·Bᵀ` (input gradient) per layer. All three go through one macro-kernel,
//! `blocked_sweep`, a classic three-level blocking:
//!
//! * a **k-panel** (`KC` deep) bounds the working set so the packed slab of
//!   `A` stays in L1 across the whole j sweep;
//! * an **A micro-panel** of `MR` rows is transpose-packed (k-major) so the
//!   micro-kernel reads its `A` operands from one contiguous, reused buffer
//!   instead of striding across `MR` distant rows;
//! * a **register tile** of `MR × NR` accumulators is carried through the
//!   whole k-panel in locals, touching the output matrix once per panel
//!   instead of once per scalar multiply-add.
//!
//! Each backend supplies its micro-kernels as `Tiles`: one for the full
//! `MR × NR` tile, one for the edge tiles and, optionally, a **pair tile**
//! of `MR × 2·NR` that covers two adjacent `NR`-wide panels at once. The
//! sweep hands every full-height run of two full panels to the pair tile
//! when the backend has one (AVX-512: 8 zmm accumulators, twice the AVX2
//! tile's width per k step), and the leftover single panel to the full
//! tile. Packing is the same either way: the pair tile reads the second
//! panel at a fixed offset from the first (`NR` columns to the right in a
//! row-major `B`, one packed panel further on in a packed `Bᵀ` block).
//! The edge kernel's hot case is the **narrow tile** (`jlen < NR`
//! columns): the class head's products have `n = C = 2`, so every one of
//! their tiles is narrow. A narrow product packs a row block of `MP`
//! micro-panels at a time and hands the whole block to one narrow-tile
//! call, so the AVX2 kernel carries up to eight independent accumulator
//! chains (four micro-panels × two columns) instead of the two one
//! micro-panel gives; a wide product packs one micro-panel at a time. The
//! scalar backend uses `kernel_edge` for all edges; the AVX2 tiles run
//! narrow tiles lane-parallel across the `MR` rows of each micro-panel and
//! hand short micro-panels (`ilen < MR`) to `kernel_edge`.
//!
//! The three products differ only in how operands are read (`Layout`):
//! `Aᵀ·B` packs its A micro-panels from the stored-transposed operand (one
//! fixed-width `MR`-element copy per k step), and `A·Bᵀ` packs a whole
//! column block of `Bᵀ` k-major per k-panel, then sweeps every row block
//! under it the way `A·B` does, so each A micro-panel is packed once per
//! column block rather than once per `NR`-wide panel.
//!
//! The packed operands live in one per-thread scratch (`PackScratch`, 64
//! KiB of zero-initialized thread-local storage) that every product on the
//! thread reuses and nothing ever clears. The packing routines write every
//! lane a tile reads before it reads it, and no tile reads the lanes past
//! a short micro-panel's height or a narrow `Bᵀ` panel's width, so the
//! scratch carries no state from one product to the next; `kernel_equivalence`
//! fills it with NaN and then checks tail-heavy products bit for bit. A
//! product therefore pays no memset for its pack buffers, which at the
//! training shapes cost more than the narrow products' arithmetic.
//!
//! Every kernel preserves the *exact* floating-point accumulation order of
//! the straightforward loops: each output element is a left-to-right sum
//! over ascending `k`, one rounded multiply then one rounded add per step
//! (partial sums flow through the register tile in the same sequence the
//! scalar loop would store them). The blocked products are therefore
//! bit-identical to [`matmul_simple`], [`matmul_tn_simple`] and
//! [`matmul_nt_simple`], which the property tests in `faction-linalg`
//! assert. Keeping bit parity matters beyond testing: experiment JSON
//! artifacts are reproducible byte-for-byte whether or not a given build
//! dispatches to the blocked path.
//!
//! All functions take raw row-major slices plus dimensions; the `Matrix`
//! methods in [`crate::matrix`] do shape checking and call in here. The
//! kernels additionally `assert_eq!` their slice lengths in *release*
//! builds: the checks are O(1) against O(m·n·k) work, and a shape bug in a
//! direct kernel call must fail loudly instead of reading logically
//! adjacent memory.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]

use std::cell::RefCell;

/// Rows of `A` packed per micro-panel (register-tile height).
pub const MR: usize = 4;
/// Columns of `B` per register tile (register-tile width).
pub const NR: usize = 8;
/// Depth of the packed k-panel.
pub const KC: usize = 256;

/// Micro-panels of A packed per row block: [`blocked_sweep`] packs
/// `MP * MR` rows at a time, so the narrow tiles of a class-head product
/// (`n < NR`) can carry several micro-panels' independent accumulators.
const MP: usize = 4;

/// Capacity, in f64, of the `Bᵀ` column block [`Layout::Nt`] packs (32
/// KiB). A block is as many `NR`-wide panels as fit at the k-panel's depth:
/// `2 * NR` columns at `klen = KC`, 128 at `klen = 32`, so every
/// standard-preset input gradient packs its whole `Bᵀ` once.
const NT_PACK: usize = 2 * KC * NR;

/// The packed operands of one blocked product: an A row block of `MP`
/// micro-panels and a `Bᵀ` column block. One lives in each thread
/// ([`PACK`]) and is reused by every product that thread runs. It is never
/// cleared: the packing routines write every lane a tile reads before the
/// tile reads it, so nothing of an earlier product can reach a later one.
struct PackScratch {
    a: [f64; MP * MR * KC],
    b: [f64; NT_PACK],
}

thread_local! {
    /// This thread's pack buffers (64 KiB of zero-initialized thread-local
    /// storage: no heap allocation, no lazy initialization).
    static PACK: RefCell<PackScratch> =
        const { RefCell::new(PackScratch { a: [0.0; MP * MR * KC], b: [0.0; NT_PACK] }) };
}

/// The blocked break-even, in multiply-adds: at or below it the simple
/// loops win or tie, because packing the operands costs as much as the
/// register tile saves. Above it the blocked path wins for all three
/// layouts, narrow class-head products (`n < NR`) included: 1.2–4× at
/// 512, and 3.4–4.9× on the tiny preset's three head products at 1024.
/// The exception is a depth of `k = 2` in `A·B` or `Aᵀ·B`, which no
/// workload issues; see [`is_small`].
pub(crate) const SMALL_VOLUME: usize = 4 * 8 * 8;

/// Full-tile micro-kernel ABI shared by the scalar reference
/// ([`kernel_full`]) and the AVX2 kernel (`crate::simd`): packed A panel,
/// panel depth, B tile and its row stride, output tile and its row stride.
/// The B and output slices start at the tile's first element. Every
/// implementation must keep the per-element ascending-`k` accumulation
/// order — that is the bit-identity contract the dispatch facade rests on.
pub(crate) type FullTile = fn(&[f64], usize, &[f64], usize, &mut [f64], usize);

/// Edge-tile micro-kernel ABI ([`kernel_edge`]'s): [`FullTile`]'s arguments
/// plus the tile's height `ilen` and width `jlen ≤ NR`. Either one short
/// micro-panel (`ilen < MR`, `jlen == NR`) or a narrow tile (`jlen < NR`)
/// over `ilen ≤ MP * MR` rows, packed as `ilen.div_ceil(MR)` micro-panels
/// of `klen` k-steps back to back. Same ascending-`k` contract.
pub(crate) type EdgeTile = fn(&[f64], usize, usize, &[f64], usize, usize, &mut [f64], usize);

/// Pair-tile micro-kernel ABI: an `MR × 2·NR` tile over two adjacent
/// `NR`-wide B panels. [`FullTile`]'s arguments plus the offset, in f64,
/// from the first panel to the second (both read at row stride `ldb`); the
/// output tile is `2·NR` contiguous columns per row. Same ascending-`k`
/// contract, so it equals two [`FullTile`] calls bit for bit.
pub(crate) type PairTile = fn(&[f64], usize, &[f64], usize, usize, &mut [f64], usize);

/// One backend's micro-kernels for [`blocked_sweep`].
#[derive(Clone, Copy)]
pub(crate) struct Tiles {
    /// Full `MR × NR` tiles.
    pub(crate) full: FullTile,
    /// Every other tile: narrow (`jlen < NR`, over a whole row block)
    /// and/or short (`ilen < MR`).
    pub(crate) edge: EdgeTile,
    /// Two adjacent full tiles at once, where the backend has a wider
    /// register file; `None` sweeps them one [`Tiles::full`] at a time.
    pub(crate) pair: Option<PairTile>,
}

/// The scalar reference micro-kernels.
pub(crate) const SCALAR_TILES: Tiles = Tiles { full: kernel_full, edge: kernel_edge, pair: None };

/// How [`blocked_sweep`] reads its operands for `out += op(a) · op(b)`
/// (`out` is always `m×n`, the contraction depth is `k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `a` is `m×k`, `b` is `k×n`.
    Nn,
    /// `a` is stored transposed (`k×m`), `b` is `k×n`.
    Tn,
    /// `a` is `m×k`, `b` is stored transposed (`n×k`).
    Nt,
}

/// Reference i-k-j product: `out += a · b` with `out` pre-zeroed by the
/// caller. Branch-free dense inner loop (no sparsity short-circuit).
///
/// `a` is `m×k`, `b` is `k×n`, `out` is `m×n`, all row-major.
// analyzer:hot-path
// analyzer:ordered: ascending-k accumulation is the sequential bit-reference
pub fn matmul_simple(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aik * bkj;
            }
        }
    }
}

/// Facade entry for the hot product: `out = a · b` (`out` pre-zeroed by
/// the caller), dispatched to the backend selected by
/// [`crate::dispatch::active_backend`].
///
/// Every backend preserves the exact per-element ascending-`k` accumulation
/// order, so the result is **bit-identical** regardless of what this
/// dispatches to (the `kernel_equivalence` property suite proves it).
// analyzer:hot-path
pub fn matmul_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    matmul_on(crate::dispatch::active_backend(), a, b, out, m, k, n);
}

/// Blocked, packed product `out = a · b` (`out` pre-zeroed by the caller)
/// on the tiles of an explicit `backend`, without reading or changing the
/// process-global dispatch; [`KernelBackend::Scalar`] is the
/// always-available reference every other backend is proven against. A
/// backend the host cannot run falls back as [`crate::dispatch`] describes.
///
/// Dispatches small problems to [`matmul_simple`]; the result is
/// bit-identical either way (see module docs).
///
/// [`KernelBackend::Scalar`]: crate::dispatch::KernelBackend::Scalar
// analyzer:hot-path
pub fn matmul_on(
    backend: crate::dispatch::KernelBackend,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    if is_small(m, k, n) {
        matmul_simple(a, b, out, m, k, n);
        return;
    }
    blocked_sweep(a, b, out, m, k, n, Layout::Nn, crate::simd::select_tiles(backend));
}

/// Whether a product is below the blocked path's break-even: too little
/// volume to amortize packing ([`SMALL_VOLUME`]), or shorter than one
/// register tile (`m < MR`, so every tile would be a scalar edge tile).
/// Width is no criterion: a product narrower than `NR` runs the narrow
/// tile.
#[inline]
pub(crate) fn is_small(m: usize, k: usize, n: usize) -> bool {
    m * k * n <= SMALL_VOLUME || m < MR
}

/// The micro-kernels of the backend selected by
/// [`crate::dispatch::active_backend`].
fn active_tiles() -> Tiles {
    crate::simd::select_tiles(crate::dispatch::active_backend())
}

/// The shared macro-kernel for all three operand layouts: packs A row
/// blocks (and, for [`Layout::Nt`], `Bᵀ` column blocks) into the calling
/// thread's [`PackScratch`] and sweeps register tiles over every output row
/// ([`sweep_panels`]).
///
/// Every output element accumulates onto its current `out` value over
/// ascending `k`, so the caller's seed (`0.0` for a plain product, `-0.0`
/// for the row-dot-compatible `A·Bᵀ`) is the first addend.
// analyzer:hot-path
#[expect(
    clippy::too_many_arguments,
    reason = "two operands, output, three extents, layout, micro-kernels"
)]
pub(crate) fn blocked_sweep(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    layout: Layout,
    tiles: Tiles,
) {
    // A narrow product's only tiles are narrow ones, which carry a whole
    // row block of `MP` micro-panels; a wide one sweeps a micro-panel at a
    // time, and packing more rows ahead only crowds L1.
    let height = if n < NR { MP * MR } else { MR };
    PACK.with_borrow_mut(|pack| {
        let PackScratch { a: apack, b: bpack } = pack;
        let mut kb = 0;
        while kb < k {
            let klen = KC.min(k - kb);
            if layout == Layout::Nt {
                // The block is as wide as `bpack` holds at this depth, so A
                // is packed once per (row block, k-panel, column block).
                let block = (NT_PACK / klen / NR) * NR;
                let mut cb = 0;
                while cb < n {
                    let cend = n.min(cb + block);
                    pack_bt(b, k, kb, klen, cb, cend, bpack);
                    for ib in (0..m).step_by(height) {
                        let ilen = pack_a(a, layout, m, k, kb, klen, ib, height, apack);
                        let out_rows = &mut out[ib * n + cb..];
                        let (width, stride) = (cend - cb, klen * NR);
                        let bt = &bpack[..];
                        sweep_panels(apack, klen, ilen, width, bt, NR, stride, out_rows, n, tiles);
                    }
                    cb = cend;
                }
            } else {
                for ib in (0..m).step_by(height) {
                    let ilen = pack_a(a, layout, m, k, kb, klen, ib, height, apack);
                    let (b_panel, out_rows) = (&b[kb * n..], &mut out[ib * n..]);
                    sweep_panels(apack, klen, ilen, n, b_panel, n, NR, out_rows, n, tiles);
                }
            }
            kb += KC;
        }
    });
}

/// Packs the A row block of up to `height` rows at rows `ib..` of `op(a)`,
/// k-panel `kb..kb+klen`, as micro-panels back to back, each k-major:
/// `apack[p * klen * MR + kk * MR + ii] = op(a)[ib + p * MR + ii][kb + kk]`.
/// Returns the block's height (`height` or the tail). Every lane a tile
/// reads is written; the lanes past a short tail panel's height, which no
/// tile reads, hold its last row or, for `Aᵀ·B`, stale values.
#[inline]
#[expect(
    clippy::too_many_arguments,
    reason = "operand, layout, two extents, the block origin and size, pack buffer"
)]
fn pack_a(
    a: &[f64],
    layout: Layout,
    m: usize,
    k: usize,
    kb: usize,
    klen: usize,
    ib: usize,
    height: usize,
    apack: &mut [f64],
) -> usize {
    let ilen = height.min(m - ib);
    for p in 0..ilen.div_ceil(MR) {
        let (pb, plen) = (ib + p * MR, MR.min(ilen - p * MR));
        let steps = &mut apack.as_chunks_mut::<MR>().0[p * klen..(p + 1) * klen];
        if layout == Layout::Tn {
            // The stored-transposed operand holds each k step's MR rows
            // contiguously: one fixed-width copy per step of a full panel.
            for (kk, dst) in steps.iter_mut().enumerate() {
                let src = (kb + kk) * m + pb;
                if plen == MR {
                    dst.copy_from_slice(&a[src..src + MR]);
                } else {
                    dst[..plen].copy_from_slice(&a[src..src + plen]);
                }
            }
        } else {
            let rows: [&[f64]; MR] = std::array::from_fn(|ii| {
                let r = pb + ii.min(plen - 1);
                &a[r * k + kb..r * k + kb + klen]
            });
            transpose_pack(&rows, steps);
        }
    }
    ilen
}

/// Packs columns `cb..cend` of `Bᵀ` (rows of the stored `n×k` operand) over
/// k-panel `kb..kb+klen` as `NR`-wide k-major panels back to back:
/// `bpack[p * klen * NR + kk * NR + jj] = b[cb + p * NR + jj][kb + kk]`. A
/// narrow last panel repeats its last column in the lanes past its width,
/// which no kernel reads, so every lane is written.
#[inline]
fn pack_bt(b: &[f64], k: usize, kb: usize, klen: usize, cb: usize, cend: usize, bpack: &mut [f64]) {
    let panels = bpack.as_chunks_mut::<NR>().0;
    for (p, jb) in (cb..cend).step_by(NR).enumerate() {
        let jlen = NR.min(cend - jb);
        let cols: [&[f64]; NR] = std::array::from_fn(|jj| {
            let c = jb + jj.min(jlen - 1);
            &b[c * k + kb..c * k + kb + klen]
        });
        transpose_pack(&cols, &mut panels[p * klen..(p + 1) * klen]);
    }
}

/// Interleaves `W` equally long source rows k step by k step:
/// `dst[kk][w] = src[w][kk]`, one contiguous `W`-wide group per k step.
#[inline]
fn transpose_pack<const W: usize>(src: &[&[f64]; W], dst: &mut [[f64; W]]) {
    for (kk, group) in dst.iter_mut().enumerate() {
        *group = std::array::from_fn(|w| src[w][kk]);
    }
}

/// Sweeps one packed A row block (`ilen` rows in `ilen.div_ceil(MR)`
/// micro-panels, see [`pack_a`]) across `width` output columns: panel `p`'s
/// B tile starts at `b[p * stride..]` with row stride `ldb` (`stride = NR`
/// in a row-major `B`, one packed panel's length in a packed `Bᵀ` block),
/// and its output tile at `out[p * NR..]` with row stride `ldo`. Each full
/// `NR`-wide column panel runs micro-panel by micro-panel: a full-height
/// run of two panels takes `tiles.pair` when the backend has one, another
/// full-height panel `tiles.full`, a short one `tiles.edge`. The narrow
/// column tail (`width % NR` columns) runs once over the whole row block
/// through `tiles.edge`, which can carry several micro-panels at once.
#[inline]
#[expect(
    clippy::too_many_arguments,
    reason = "packed A, extents, B with strides, output, micro-kernels"
)]
fn sweep_panels(
    apack: &[f64],
    klen: usize,
    ilen: usize,
    width: usize,
    b: &[f64],
    ldb: usize,
    stride: usize,
    out: &mut [f64],
    ldo: usize,
    tiles: Tiles,
) {
    let wide = width - width % NR;
    for p in 0..ilen.div_ceil(MR) {
        let panel = &apack[p * klen * MR..];
        let (plen, out_rows) = (MR.min(ilen - p * MR), &mut out[p * MR * ldo..]);
        let mut jb = 0;
        while jb < wide {
            let (b_tile, out_tile) = (&b[jb / NR * stride..], &mut out_rows[jb..]);
            let step = match tiles.pair {
                Some(pair) if plen == MR && wide - jb >= 2 * NR => {
                    pair(panel, klen, b_tile, ldb, stride, out_tile, ldo);
                    2 * NR
                }
                _ if plen == MR => {
                    (tiles.full)(panel, klen, b_tile, ldb, out_tile, ldo);
                    NR
                }
                _ => {
                    (tiles.edge)(panel, klen, plen, b_tile, ldb, NR, out_tile, ldo);
                    NR
                }
            };
            jb += step;
        }
    }
    if wide < width {
        let (b_tile, out_tile) = (&b[wide / NR * stride..], &mut out[wide..]);
        (tiles.edge)(apack, klen, ilen, b_tile, ldb, width - wide, out_tile, ldo);
    }
}

/// Full `MR × NR` register-tile micro-kernel over one k-panel.
///
/// Accumulators are seeded from `out` (carrying earlier panels' partial
/// sums) and written back once, so per-element accumulation order stays the
/// scalar loop's ascending-k order.
#[inline]
// analyzer:ordered: ascending-k accumulation into the register block matches matmul_simple
pub(crate) fn kernel_full(
    apack: &[f64],
    klen: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (ii, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&out[ii * ldo..ii * ldo + NR]);
    }
    for kk in 0..klen {
        let b_row = &b[kk * ldb..kk * ldb + NR];
        for (ii, acc_row) in acc.iter_mut().enumerate() {
            let aik = apack[kk * MR + ii];
            for (jj, av) in acc_row.iter_mut().enumerate() {
                *av += aik * b_row[jj];
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate() {
        out[ii * ldo..ii * ldo + NR].copy_from_slice(acc_row);
    }
}

/// Edge tile: a short micro-panel (`ilen < MR`) and/or a narrow column
/// tail (`jlen < NR`) over a row block of `ilen.div_ceil(MR)` packed
/// micro-panels (`ilen ≤ MP * MR`, see [`EdgeTile`]). A plain axpy sweep
/// with the same ascending-k order as the full kernel: the scalar
/// backend's [`EdgeTile`], and the AVX2 tiles' fallback for short panels.
#[inline]
#[expect(clippy::too_many_arguments, reason = "the EdgeTile ABI")]
// analyzer:ordered: ascending-k accumulation on the edge tiles matches matmul_simple
pub(crate) fn kernel_edge(
    apack: &[f64],
    klen: usize,
    ilen: usize,
    b: &[f64],
    ldb: usize,
    jlen: usize,
    out: &mut [f64],
    ldo: usize,
) {
    for ii in 0..ilen {
        let lane = &apack[ii / MR * klen * MR + ii % MR..];
        let out_row = &mut out[ii * ldo..ii * ldo + jlen];
        for kk in 0..klen {
            let aik = lane[kk * MR];
            let b_row = &b[kk * ldb..kk * ldb + jlen];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

/// Transposed-LHS product `out = aᵀ · b` without materializing `aᵀ`.
///
/// `a` is `k×m`, `b` is `k×n`, `out` is `m×n` (pre-zeroed). This is the
/// backprop `grad_w = xᵀ · δ` shape. Runs the shared macro-kernel on the
/// active backend, packing A micro-panels straight from the transposed
/// storage; small shapes take [`matmul_tn_simple`]. Both keep per-element
/// ascending-k order, so the result is bit-identical to
/// `a.transpose().matmul(b)` on every backend.
// analyzer:hot-path
pub fn matmul_tn_into(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
    assert_eq!(a.len(), k * m);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    if is_small(m, k, n) {
        matmul_tn_simple(a, b, out, k, m, n);
        return;
    }
    blocked_sweep(a, b, out, m, k, n, Layout::Tn, active_tiles());
}

/// Reference `out += aᵀ · b` (shapes as [`matmul_tn_into`]): the k-outer
/// axpy sweep, which reads both operands row-contiguously. The small-shape
/// path of [`matmul_tn_into`] and its bit-reference.
// analyzer:hot-path
// analyzer:ordered: k-outer axpy keeps per-element ascending-k order (bit-identical to transpose+matmul)
pub fn matmul_tn_simple(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
    assert_eq!(a.len(), k * m);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &aki) in a_row.iter().enumerate() {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aki * bkj;
            }
        }
    }
}

/// Transposed-RHS product `out = a · bᵀ` without materializing `bᵀ`.
///
/// `a` is `m×k`, `b` is `n×k`, `out` is `m×n` (overwritten). This is the
/// backprop `dx = δ · wᵀ` shape. The output is seeded with `-0.0` — the
/// identity `f64`'s `Sum` folds from — and then runs the shared
/// macro-kernel on the active backend, so every element (zero signs
/// included) is bit-identical to the row·row dot of [`matmul_nt_simple`],
/// which small shapes take directly.
// analyzer:hot-path
pub fn matmul_nt_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(out.len(), m * n);
    if is_small(m, k, n) {
        matmul_nt_simple(a, b, out, m, k, n);
        return;
    }
    out.fill(-0.0);
    blocked_sweep(a, b, out, m, k, n, Layout::Nt, active_tiles());
}

/// Reference `out = a · bᵀ` (shapes as [`matmul_nt_into`]): one contiguous
/// row·row [`crate::vector::dot`] per output element. The small-shape path
/// of [`matmul_nt_into`] and its bit-reference.
// analyzer:hot-path
pub fn matmul_nt_simple(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = crate::vector::dot(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Rows whose dots [`gemv_into`] carries at once.
const MV_ROWS: usize = 8;

/// `out = a · x` for an `m×k` row-major `a`, `MV_ROWS` row dots at a time
/// with one accumulator each, so the adds of different rows overlap
/// instead of queuing on one row's dependency chain. Every row still sums
/// its products over ascending `k` starting from `-0.0` — the fold
/// [`crate::vector::dot`]'s `Sum` runs — so each element is bit-identical
/// to that row's `dot`, zero signs included; the `m % MV_ROWS` tail rows
/// call `dot` directly.
// analyzer:hot-path
// analyzer:ordered: per-row ascending-k accumulation from -0.0, the vector::dot fold
pub fn gemv_into(a: &[f64], x: &[f64], out: &mut [f64], m: usize, k: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(x.len(), k);
    assert_eq!(out.len(), m);
    let full = m - m % MV_ROWS;
    for (rb, ob) in out[..full].chunks_exact_mut(MV_ROWS).enumerate() {
        let block = &a[rb * MV_ROWS * k..(rb + 1) * MV_ROWS * k];
        let rows: [&[f64]; MV_ROWS] = std::array::from_fn(|r| &block[r * k..(r + 1) * k]);
        let mut acc = [-0.0f64; MV_ROWS];
        for (kk, &xk) in x.iter().enumerate() {
            for (acc_r, row) in acc.iter_mut().zip(&rows) {
                *acc_r += row[kk] * xk;
            }
        }
        ob.copy_from_slice(&acc);
    }
    for (i, o) in out.iter_mut().enumerate().skip(full) {
        *o = crate::vector::dot(&a[i * k..(i + 1) * k], x);
    }
}

/// Cache-blocked transpose: `out[c][r] = a[r][c]` for an `m×n` input.
///
/// Walks `TB×TB` tiles so both the strided reads and the strided writes stay
/// within a tile that fits in L1, instead of streaming the whole output
/// column-by-column.
// analyzer:hot-path
pub fn transpose_into(a: &[f64], out: &mut [f64], m: usize, n: usize) {
    assert_eq!(a.len(), m * n);
    assert_eq!(out.len(), m * n);
    const TB: usize = 32;
    let mut rb = 0;
    while rb < m {
        let rend = (rb + TB).min(m);
        let mut cb = 0;
        while cb < n {
            let cend = (cb + TB).min(n);
            for r in rb..rend {
                for c in cb..cend {
                    out[c * m + r] = a[r * n + c];
                }
            }
            cb += TB;
        }
        rb += TB;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedRng;

    fn random(m: usize, n: usize, rng: &mut SeedRng) -> Vec<f64> {
        (0..m * n).map(|_| rng.uniform_range(-2.0, 2.0)).collect()
    }

    #[test]
    fn blocked_matches_simple_bitwise() {
        let mut rng = SeedRng::new(7);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 33, 19), (40, 64, 72), (65, 13, 9)] {
            let a = random(m, k, &mut rng);
            let b = random(k, n, &mut rng);
            let mut simple = vec![0.0; m * n];
            let mut blocked = vec![0.0; m * n];
            matmul_simple(&a, &b, &mut simple, m, k, n);
            matmul_into(&a, &b, &mut blocked, m, k, n);
            for (x, y) in simple.iter().zip(&blocked) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn blocked_spans_multiple_k_panels() {
        let mut rng = SeedRng::new(11);
        let (m, k, n) = (9, KC + 37, 24);
        let a = random(m, k, &mut rng);
        let b = random(k, n, &mut rng);
        let mut simple = vec![0.0; m * n];
        let mut blocked = vec![0.0; m * n];
        matmul_simple(&a, &b, &mut simple, m, k, n);
        matmul_into(&a, &b, &mut blocked, m, k, n);
        for (x, y) in simple.iter().zip(&blocked) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn tn_kernel_matches_explicit_transpose() {
        let mut rng = SeedRng::new(3);
        let (k, m, n) = (14, 6, 10);
        let a = random(k, m, &mut rng);
        let b = random(k, n, &mut rng);
        // Explicit transpose then simple product.
        let mut at = vec![0.0; m * k];
        transpose_into(&a, &mut at, k, m);
        let mut want = vec![0.0; m * n];
        matmul_simple(&at, &b, &mut want, m, k, n);
        let mut got = vec![0.0; m * n];
        matmul_tn_into(&a, &b, &mut got, k, m, n);
        for (x, y) in want.iter().zip(&got) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn nt_kernel_matches_explicit_transpose() {
        let mut rng = SeedRng::new(5);
        let (m, k, n) = (8, 12, 7);
        let a = random(m, k, &mut rng);
        let b = random(n, k, &mut rng);
        let mut bt = vec![0.0; k * n];
        transpose_into(&b, &mut bt, n, k);
        let mut want = vec![0.0; m * n];
        matmul_simple(&a, &bt, &mut want, m, k, n);
        let mut got = vec![0.0; m * n];
        matmul_nt_into(&a, &b, &mut got, m, k, n);
        for (x, y) in want.iter().zip(&got) {
            // Row·row dot and k-ascending axpy share the same addition
            // sequence, so these are bit-equal too.
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gemv_keeps_the_dots_zero_signs() {
        // Zero rows in the 8-row block and in the per-row tail: `-0.0`
        // products onto the `-0.0` seed stay `-0.0`, one `+0.0` product
        // makes `+0.0` — exactly what `vector::dot` returns.
        let (m, k) = (11, 5);
        let mut a = vec![1.5; m * k];
        a[..k].fill(-0.0);
        a[3 * k..4 * k].fill(0.0);
        a[9 * k..10 * k].fill(0.0);
        a[10 * k..].fill(-0.0);
        let x = vec![2.0; k];
        let mut out = vec![f64::NAN; m];
        gemv_into(&a, &x, &mut out, m, k);
        for (row, negative) in [(0, true), (3, false), (9, false), (10, true)] {
            assert_eq!(out[row], 0.0);
            assert_eq!(out[row].is_sign_negative(), negative, "row {row}");
        }
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.to_bits(), crate::vector::dot(&a[i * k..(i + 1) * k], &x).to_bits());
        }
        // k = 0: every row is the empty dot, `-0.0`.
        let mut out = vec![f64::NAN; 9];
        gemv_into(&[], &[], &mut out, 9, 0);
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn transpose_tiles_cover_edges() {
        let mut rng = SeedRng::new(9);
        for &(m, n) in &[(1, 1), (5, 33), (33, 5), (64, 64), (70, 3)] {
            let a = random(m, n, &mut rng);
            let mut t = vec![0.0; m * n];
            transpose_into(&a, &mut t, m, n);
            for r in 0..m {
                for c in 0..n {
                    assert_eq!(a[r * n + c].to_bits(), t[c * m + r].to_bits());
                }
            }
        }
    }
}

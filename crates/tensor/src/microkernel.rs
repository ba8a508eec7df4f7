//! Register-tiled GEMM microkernels.
//!
//! Every optimised GEMM in Hector runs through this module's one family,
//! the **segment tiles** ([`gemm_rows`], [`outer_rows`]) — the production
//! GEMM template. Rows arrive type-sorted, so the executor walks each
//! chunk as *runs* of consecutive rows sharing one weight slab
//! ([`for_each_run`]) and hands a run to a tile block by block: a
//! register tile of gathered input rows × a column panel of `W` for
//! `y = x · W`, a tile of `dW` rows × a column panel over a block of rows
//! for `dW += xᵀ · dy`. `y = x · Wᵀ` packs `Wᵀ` once per run
//! ([`pack_transposed`]) and reuses the forward tile.
//!
//! Beside them sit the **scalar references** ([`gemm_row_scalar`],
//! [`gemm_row_tb_scalar`], [`outer_accum_scalar`]): one plain GEMV or
//! rank-1 update per row. They define what the tiles compute, and the
//! sequential oracle (`hector-runtime`'s `exec.rs`) runs them as they
//! are.
//!
//! The traversal template's per-edge dot products (RGAT's and HGT's
//! attention scores and their backward) run the **dot tile**
//! ([`dot_rows`]): a block of row pairs, one lane per pair. Each lane
//! folds its pair from `+0.0` in ascending index — the oracle's
//! sequential `dot` — so the free axis it vectorises is the rows, not
//! the reduction. Its sum aggregates (a destination's in-edge rows,
//! scaled by their attention weights or normalisers) run the **aggregate
//! tile** ([`accumulate_rows`]): `acc[t_j] += x_j · s_j` over a block of
//! positions, vectorised along the columns (the free axis), with a run
//! of positions sharing one target kept in registers and stored once.
//!
//! # Width-1 operands
//!
//! Two reductions meet a one-wide operand, and both vectorise across the
//! axis the pinned order leaves free:
//!
//! * **Dot products across rows.** The AVX2 dot tile (which the AVX-512
//!   level runs too) loads eight rows of both operands eight columns at
//!   a time, multiplies them row by row, and transposes the eight
//!   product vectors in registers (`unpacklo`/`unpackhi`, `shuffle`,
//!   `permute2f128`), so column `c` becomes one vector holding every
//!   row's product at `c`; eight adds in ascending `c` advance all eight
//!   folds. Two such groups run side by side to hide the add latency.
//!   A ragged last column block is loaded masked and only its real
//!   columns are added. The generic body folds four pairs abreast with
//!   scalar adds.
//! * **`n = 1` weight gradients across `k`.** A `[k, 1]` gradient slab
//!   (an attention weight vector's) is one `k`-wide row, so
//!   [`outer_rows`] at `n == 1` swaps the roles of `x` and `dy`: the
//!   tile's lanes run over `k`, and each row adds `dy[0] · x[p]` to every
//!   slab element at once. Multiplication commutes and every element
//!   still receives its rows in ascending order, so the result is
//!   [`outer_accum_scalar`]'s, bit for bit.
//!
//! # Bit-identity contract
//!
//! Every kernel here adds the contributions of one output element in
//! the same order (ascending reduction index, starting from the
//! element's prior value or `+0.0`). Tiling only changes *which* outputs
//! advance together, never the per-output association order — so tiles
//! and scalar references agree **bit for bit** (pinned by
//! `tests/simd_gemm.rs` over ragged dims, run lengths around the tile
//! height, gathered rows and non-finite values). The aggregate tile is
//! held to the loop that folds one position after another: each target
//! element takes `x · s` (one multiply, then one add) once per position,
//! in position order, whether its running value sits in a register for
//! a run or is reloaded — the AVX2 body (64-, 32-, 16- and 8-column
//! panels of compile-time width, then single columns; the AVX-512 level
//! runs it too) and the generic loop perform the same operations.
//! *Whether* an output is NaN is inside the contract; a NaN's sign and
//! payload are not — Rust leaves them unspecified, and they follow the
//! operand order the compiler picks when two NaNs meet in an addition.
//!
//! # Segment/tile contract
//!
//! A tile call is one run block: every input row multiplies the *same*
//! slab. Callers gather the rows (any order of references, usually
//! through a row map), the tile writes a contiguous row block; rows
//! beyond the last full tile and columns beyond the last full panel
//! take the same body at tile height 1 and narrower panels ([`LANES`],
//! then single columns; on AVX-512 32 and 16 lanes, then the masked
//! panel), so a run of any length and any `k`, `n` is covered without a
//! second code path.
//!
//! An [`Isa`] names one of three instantiations the host can run:
//!
//! * the generic `#[inline(always)]` body, compiled plainly;
//! * on x86-64, the same body under `#[target_feature(enable = "avx2")]`;
//! * on x86-64 with `avx512f`, a body in explicit `std::arch` intrinsics
//!   (`_mm512_mul_ps` then `_mm512_add_ps`). The generic body is fragile
//!   under `avx512f`: with 32-column panels the gradient tile compiled to
//!   scalar `vmulss`/`vaddss` and ran 3–7× slower than AVX2, so this
//!   level spells out its registers. Its panels are 64, 32 and 16 lanes
//!   wide, and a ragged tail (`n % 16 ≠ 0`) is one masked 16-lane panel
//!   whose masked-off lanes are neither loaded nor stored — every `n`
//!   stays on the level.
//!
//! No instantiation fuses a multiply-add: the `fma` feature is never
//! enabled, no fused intrinsic is called (CI greps for both), and Rust
//! never contracts `a * b + c`. All three perform the same IEEE
//! operations and differ only in register width.
//!
//! # Zeros are not skipped
//!
//! No kernel here branches on a zero input element, so `0 × inf` and
//! `0 × NaN` produce `NaN` as IEEE demands, with no finiteness scan of
//! the operands. Over a finite slab a skip would not change the result
//! either — the signed-zero argument:
//!
//! * a product with a zero input and a *finite* weight is `±0`;
//! * an accumulator that starts at `+0.0` can never become `-0.0` under
//!   round-to-nearest (a sum is `-0.0` only when both addends are), so
//!   adding `±0` to it is the identity — whether the accumulator is
//!   still `+0.0` or already non-zero.
//!
//! Measured, the branch *costs* time once it is taken half the time
//! (mispredictions).

use std::ops::Range;
use std::sync::OnceLock;

/// SIMD lane width the generic and AVX2 tiles' panels are built from
/// (`f32x8`, one AVX2 register; narrower ISAs split each panel into
/// several registers). The AVX-512 tiles use 16-lane registers of their
/// own.
pub const LANES: usize = 8;

/// Panel width of the generic tile in columns: four [`LANES`]-wide
/// panels fill a small register file's worth of vector registers while
/// still leaving room for the broadcast multiplier and the weight panel
/// itself.
pub const BLOCK: usize = 4 * LANES;

/// Scalar `y += x · W` where `W` is `[x.len(), wcols]` row-major and `y`
/// is `wcols` wide: one axpy per input element, in ascending input
/// index. The reference of the `y = x · W` tile (from a zeroed `y`).
///
/// # Panics
///
/// Panics if `y.len() != wcols`.
pub fn gemm_row_scalar(x: &[f32], slab: &[f32], wcols: usize, y: &mut [f32]) {
    assert_eq!(y.len(), wcols, "output width must equal weight columns");
    if wcols == 0 {
        return;
    }
    for (&xv, row) in x.iter().zip(slab.chunks_exact(wcols)) {
        for (yj, &wv) in y.iter_mut().zip(row) {
            *yj += xv * wv;
        }
    }
}

/// Scalar `y = x · Wᵀ` where `W` is `[y.len(), wcols]` row-major and `x`
/// is `wcols` wide: one serial dot per output, overwriting `y`. The
/// reference of the tile over [`pack_transposed`] slabs.
pub fn gemm_row_tb_scalar(x: &[f32], slab: &[f32], wcols: usize, y: &mut [f32]) {
    if wcols == 0 {
        // Zero-length dots: every output is the empty sum.
        y.fill(0.0);
        return;
    }
    for (yj, row) in y.iter_mut().zip(slab.chunks_exact(wcols)) {
        *yj = x
            .iter()
            .zip(row)
            .fold(0.0f32, |acc, (&xv, &wv)| acc + xv * wv);
    }
}

/// Scalar outer-product accumulate `slab += x ⊗ dy` (`slab` is
/// `[x.len(), dy.len()]` row-major): one axpy per slab row. The
/// reference of the `dW += xᵀ · dy` tile, one call per row.
pub fn outer_accum_scalar(x: &[f32], dy: &[f32], slab: &mut [f32]) {
    let n = dy.len();
    if n == 0 {
        return;
    }
    for (&xv, row) in x.iter().zip(slab.chunks_exact_mut(n)) {
        for (g, &dv) in row.iter_mut().zip(dy) {
            *g += xv * dv;
        }
    }
}

/// An instantiation of the tile kernels that the host can run: the
/// generic body, the same body compiled for 256-bit registers (x86-64
/// with AVX2), or the 512-bit intrinsics body (x86-64 with `avx512f`).
/// Values only come from [`Isa::GENERIC`], [`Isa::best`] and
/// [`Isa::available`], so holding one proves the instantiation is
/// runnable here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Generic,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The plain instantiation, available on every target.
    pub const GENERIC: Isa = Isa(Level::Generic);

    /// Every instantiation the host can run, narrowest first.
    pub fn available() -> impl Iterator<Item = Isa> {
        #[cfg(target_arch = "x86_64")]
        let wide = [
            std::arch::is_x86_feature_detected!("avx2").then_some(Isa(Level::Avx2)),
            std::arch::is_x86_feature_detected!("avx512f").then_some(Isa(Level::Avx512)),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let wide: [Option<Isa>; 0] = [];
        std::iter::once(Isa::GENERIC).chain(wide.into_iter().flatten())
    }

    /// The widest instantiation the host can run, detected once per
    /// process.
    pub fn best() -> Isa {
        static BEST: OnceLock<Isa> = OnceLock::new();
        *BEST.get_or_init(|| Isa::available().last().unwrap_or(Isa::GENERIC))
    }
}

/// Calls `f(type, run)` for every maximal run of consecutive rows of
/// `rows` sharing a weight type. Rows are type-sorted in every row
/// domain, so a run is a whole type segment (or a chunk's share of
/// one) — the unit a tile call works on.
pub fn for_each_run(
    rows: Range<usize>,
    type_of: impl Fn(usize) -> usize,
    mut f: impl FnMut(usize, Range<usize>),
) {
    let mut start = rows.start;
    while start < rows.end {
        let ty = type_of(start);
        let end = (start + 1..rows.end)
            .find(|&r| type_of(r) != ty)
            .unwrap_or(rows.end);
        f(ty, start..end);
        start = end;
    }
}

/// Rows gathered per tile call: a multiple of every instantiation's
/// `y = x · W` tile height (1, 6 and 4), so only a run's last block ends
/// in short tiles, and small enough that a block's `x` and `dy` rows
/// stay cache-resident while the gradient tiles sweep them.
pub const BLOCK_ROWS: usize = 48;

/// Tile shape (rows × panel columns) of the plain instantiation: one
/// row × a [`BLOCK`]-wide panel is what 128-bit baseline registers hold
/// without spilling (taller tiles measured slower there).
const GENERIC_TILE: (usize, usize) = (1, BLOCK);

/// Tile shape of the AVX2 instantiation: 6 rows × two 8-lane panels is
/// 12 of the 16 vector registers in accumulators, leaving the panel
/// pair, the broadcast and the product.
#[cfg(target_arch = "x86_64")]
const AVX2_TILE: (usize, usize) = (6, 2 * LANES);

#[cfg(target_arch = "x86_64")]
const _: () =
    assert!(BLOCK_ROWS.is_multiple_of(AVX2_TILE.0) && BLOCK_ROWS.is_multiple_of(avx512::GEMM_ROWS));

/// One register tile of `y = x · W`: `R` gathered rows × columns
/// `[j, j + NW)`, accumulated from `+0.0` in ascending `p` and stored
/// once.
#[inline(always)]
fn gemm_panel_tile<const R: usize, const NW: usize>(
    xs: &[&[f32]; R],
    slab: &[f32],
    n: usize,
    j: usize,
    ys: &mut [f32],
) {
    let mut acc = [[0.0f32; NW]; R];
    for (p, wrow) in slab.chunks_exact(n).enumerate() {
        let w: &[f32; NW] = wrow[j..j + NW].try_into().expect("panel width");
        for (a, x) in acc.iter_mut().zip(xs) {
            let xv = x[p];
            for (av, &wv) in a.iter_mut().zip(w) {
                *av += xv * wv;
            }
        }
    }
    for (a, y) in acc.iter().zip(ys.chunks_exact_mut(n)) {
        y[j..j + NW].copy_from_slice(a);
    }
}

/// `R` rows across all of `W`'s columns: `NW`-wide panels, then
/// [`LANES`]-wide, then single columns.
#[inline(always)]
fn gemm_row_tile<const R: usize, const NW: usize>(
    xs: &[&[f32]; R],
    slab: &[f32],
    n: usize,
    ys: &mut [f32],
) {
    let mut j = 0;
    while j + NW <= n {
        gemm_panel_tile::<R, NW>(xs, slab, n, j, ys);
        j += NW;
    }
    while j + LANES <= n {
        gemm_panel_tile::<R, LANES>(xs, slab, n, j, ys);
        j += LANES;
    }
    while j < n {
        gemm_panel_tile::<R, 1>(xs, slab, n, j, ys);
        j += 1;
    }
}

#[inline(always)]
fn gemm_tile_body<const R: usize, const NW: usize>(
    xs: &[&[f32]],
    slab: &[f32],
    n: usize,
    ys: &mut [f32],
) {
    let mut xt = xs.chunks_exact(R);
    let mut yt = ys.chunks_exact_mut(R * n);
    for (x, y) in (&mut xt).zip(&mut yt) {
        let x: &[&[f32]; R] = x.try_into().expect("tile height");
        gemm_row_tile::<R, NW>(x, slab, n, y);
    }
    let ytail = yt.into_remainder().chunks_exact_mut(n);
    for (x, y) in xt.remainder().iter().zip(ytail) {
        gemm_row_tile::<1, NW>(&[x], slab, n, y);
    }
}

/// [`gemm_tile_body`] compiled for 256-bit registers.
///
/// # Safety
///
/// The host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_tile_avx2(xs: &[&[f32]], slab: &[f32], n: usize, ys: &mut [f32]) {
    gemm_tile_body::<{ AVX2_TILE.0 }, { AVX2_TILE.1 }>(xs, slab, n, ys);
}

/// One block (≤ [`BLOCK_ROWS`] rows) of [`gemm_rows`] on `isa`.
fn gemm_tile(isa: Isa, xs: &[&[f32]], slab: &[f32], n: usize, ys: &mut [f32]) {
    assert_eq!(ys.len(), xs.len() * n, "output block must be [rows, n]");
    if n == 0 {
        return;
    }
    let k = slab.len() / n;
    assert_eq!(slab.len(), k * n, "weight slab must be [k, n]");
    assert!(xs.iter().all(|x| x.len() == k), "input rows must be k wide");
    match isa.0 {
        Level::Generic => {
            gemm_tile_body::<{ GENERIC_TILE.0 }, { GENERIC_TILE.1 }>(xs, slab, n, ys);
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` naming AVX2 only comes from `Isa::available`,
        // which detected the feature on this host.
        Level::Avx2 => unsafe { gemm_tile_avx2(xs, slab, n, ys) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` naming AVX-512 only comes from
        // `Isa::available`, which detected `avx512f` on this host.
        Level::Avx512 => unsafe { avx512::gemm_tile(xs, slab, n, ys) },
    }
}

/// Segment-tiled `ys[r] = xs[r] · W` for a run of rows sharing one
/// slab: `W` is `[k, n]` row-major, `xs` yields the (gathered) input
/// rows, each `k` wide, and `ys` is the run's `[rows, n]` output block
/// (overwritten). Each output accumulates from `+0.0` in ascending `p`
/// without skipping zeros — bit-identical to [`gemm_row_scalar`] into a
/// zeroed row.
///
/// # Panics
///
/// Panics if the slab is not `[k, n]`, an input row is not `k` wide, or
/// `ys` is not `rows * n` long.
pub fn gemm_rows<'a>(
    isa: Isa,
    xs: impl IntoIterator<Item = &'a [f32]>,
    slab: &[f32],
    n: usize,
    mut ys: &mut [f32],
) {
    let mut xs = xs.into_iter();
    loop {
        let mut block: [&[f32]; BLOCK_ROWS] = [&[]; BLOCK_ROWS];
        let mut rows = 0;
        for (slot, x) in block.iter_mut().zip(&mut xs) {
            *slot = x;
            rows += 1;
        }
        if rows == 0 {
            break;
        }
        assert!(ys.len() >= rows * n, "output block shorter than the run");
        let (head, rest) = std::mem::take(&mut ys).split_at_mut(rows * n);
        gemm_tile(isa, &block[..rows], slab, n, head);
        ys = rest;
    }
    assert!(ys.is_empty(), "output block longer than the run");
}

/// Packs `Wᵀ` of a `[rows, cols]` row-major slab into `out`
/// (`[cols, rows]`), so `x · Wᵀ` runs through [`gemm_rows`]: each output
/// still sums `x[p] · W[j, p]` from `+0.0` in ascending `p`, the order
/// of [`gemm_row_tb_scalar`].
///
/// # Panics
///
/// Panics if `slab` or `out` is not `rows * cols` long.
pub fn pack_transposed(slab: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    assert_eq!(slab.len(), rows * cols, "slab must be [rows, cols]");
    assert_eq!(out.len(), rows * cols, "packed slab must be [cols, rows]");
    if cols == 0 {
        return;
    }
    for (j, wrow) in slab.chunks_exact(cols).enumerate() {
        for (p, &wv) in wrow.iter().enumerate() {
            out[p * rows + j] = wv;
        }
    }
}

/// One register tile of `dW += xᵀ · dy`: `I` slab rows from `i` ×
/// columns `[j, j + NW)`, loaded once, advanced over every row of the
/// block in ascending order, stored once.
#[inline(always)]
fn outer_panel_tile<const I: usize, const NW: usize>(
    xs: &[&[f32]],
    dys: &[&[f32]],
    i: usize,
    n: usize,
    j: usize,
    tile: &mut [f32],
) {
    let mut acc = [[0.0f32; NW]; I];
    for (a, t) in acc.iter_mut().zip(tile.chunks_exact(n)) {
        a.copy_from_slice(&t[j..j + NW]);
    }
    for (x, dy) in xs.iter().zip(dys) {
        let d: &[f32; NW] = dy[j..j + NW].try_into().expect("panel width");
        let xi: &[f32; I] = x[i..i + I].try_into().expect("tile height");
        for (a, &xv) in acc.iter_mut().zip(xi) {
            for (av, &dv) in a.iter_mut().zip(d) {
                *av += xv * dv;
            }
        }
    }
    for (a, t) in acc.iter().zip(tile.chunks_exact_mut(n)) {
        t[j..j + NW].copy_from_slice(a);
    }
}

#[inline(always)]
fn outer_row_tile<const I: usize, const NW: usize>(
    xs: &[&[f32]],
    dys: &[&[f32]],
    i: usize,
    n: usize,
    tile: &mut [f32],
) {
    let mut j = 0;
    while j + NW <= n {
        outer_panel_tile::<I, NW>(xs, dys, i, n, j, tile);
        j += NW;
    }
    while j + LANES <= n {
        outer_panel_tile::<I, LANES>(xs, dys, i, n, j, tile);
        j += LANES;
    }
    while j < n {
        outer_panel_tile::<I, 1>(xs, dys, i, n, j, tile);
        j += 1;
    }
}

#[inline(always)]
fn outer_tile_body<const I: usize, const NW: usize>(
    xs: &[&[f32]],
    dys: &[&[f32]],
    n: usize,
    slab: &mut [f32],
) {
    let mut tiles = slab.chunks_exact_mut(I * n);
    let mut i = 0;
    for tile in &mut tiles {
        outer_row_tile::<I, NW>(xs, dys, i, n, tile);
        i += I;
    }
    for tile in tiles.into_remainder().chunks_exact_mut(n) {
        outer_row_tile::<1, NW>(xs, dys, i, n, tile);
        i += 1;
    }
}

/// [`outer_tile_body`] compiled for 256-bit registers.
///
/// # Safety
///
/// The host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn outer_tile_avx2(xs: &[&[f32]], dys: &[&[f32]], n: usize, slab: &mut [f32]) {
    outer_tile_body::<{ AVX2_TILE.0 }, { AVX2_TILE.1 }>(xs, dys, n, slab);
}

/// One block (≤ [`BLOCK_ROWS`] rows) of [`outer_rows`] on `isa`.
fn outer_tile(isa: Isa, xs: &[&[f32]], dys: &[&[f32]], n: usize, slab: &mut [f32]) {
    assert_eq!(xs.len(), dys.len(), "one dy row per x row");
    if n == 0 {
        return;
    }
    let k = slab.len() / n;
    assert_eq!(slab.len(), k * n, "gradient slab must be [k, n]");
    assert!(xs.iter().all(|x| x.len() == k), "x rows must be k wide");
    assert!(dys.iter().all(|d| d.len() == n), "dy rows must be n wide");
    // A `[k, 1]` slab is one `k`-wide row: with the roles of `x` and `dy`
    // swapped, the tile's lanes run over `k` and each row adds
    // `dy[0] · x[p]` (`x[p] · dy[0]`, multiplication commuting) to every
    // slab element at once, still in ascending row order.
    let (xs, dys, n) = if n == 1 { (dys, xs, k) } else { (xs, dys, n) };
    match isa.0 {
        Level::Generic => {
            outer_tile_body::<{ GENERIC_TILE.0 }, { GENERIC_TILE.1 }>(xs, dys, n, slab);
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_tile`.
        Level::Avx2 => unsafe { outer_tile_avx2(xs, dys, n, slab) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_tile`.
        Level::Avx512 => unsafe { avx512::outer_tile(xs, dys, n, slab) },
    }
}

/// Segment-tiled `slab += Σ_r x[r] ⊗ dy[r]` over a run of rows sharing
/// one `[k, n]` gradient slab: `rows` yields the (gathered) `(x, dy)`
/// row pairs, `k` and `n` wide. Every slab element receives the rows'
/// contributions in ascending `r` without skipping zeros —
/// bit-identical to one [`outer_accum_scalar`] per row.
///
/// # Panics
///
/// Panics if the slab is not `[k, n]` or a row has the wrong width.
pub fn outer_rows<'a>(
    isa: Isa,
    rows: impl IntoIterator<Item = (&'a [f32], &'a [f32])>,
    n: usize,
    slab: &mut [f32],
) {
    let mut rows = rows.into_iter();
    loop {
        let mut xs: [&[f32]; BLOCK_ROWS] = [&[]; BLOCK_ROWS];
        let mut dys: [&[f32]; BLOCK_ROWS] = [&[]; BLOCK_ROWS];
        let mut count = 0;
        for ((xslot, dslot), (x, dy)) in xs.iter_mut().zip(&mut dys).zip(&mut rows) {
            (*xslot, *dslot) = (x, dy);
            count += 1;
        }
        if count == 0 {
            break;
        }
        outer_tile(isa, &xs[..count], &dys[..count], n, slab);
    }
}

/// Row pairs the generic dot tile folds abreast: four independent
/// chains hide the add latency that bounds one sequential fold.
const GENERIC_DOT: usize = 4;

/// `N` dot products at once: lane `k` folds pair `k` from `+0.0` in
/// ascending index — one sequential fold per pair, interleaved.
#[inline(always)]
fn dot_fold<const N: usize>(a: [&[f32]; N], b: [&[f32]; N], w: usize) -> [f32; N] {
    let (a, b) = (a.map(|x| &x[..w]), b.map(|y| &y[..w]));
    let mut acc = [0.0f32; N];
    for i in 0..w {
        for k in 0..N {
            acc[k] += a[k][i] * b[k][i];
        }
    }
    acc
}

/// `N` rows of `rows` from `r`; a short last group repeats its first
/// row, and those lanes are computed and dropped.
#[inline(always)]
fn dot_group<'a, const N: usize>(rows: &[&'a [f32]], r: usize) -> [&'a [f32]; N] {
    let mut group = [rows[r]; N];
    for (slot, &row) in group.iter_mut().zip(&rows[r..]) {
        *slot = row;
    }
    group
}

#[inline(always)]
fn dot_tile_body<const N: usize>(a: &[&[f32]], b: &[&[f32]], w: usize, out: &mut [f32]) {
    for (r, out) in (0..).step_by(N).zip(out.chunks_mut(N)) {
        let dots = dot_fold::<N>(dot_group(a, r), dot_group(b, r), w);
        out.copy_from_slice(&dots[..out.len()]);
    }
}

/// The row-parallel dot tile: `out[r] = a[r] · b[r]` over a block of row
/// pairs, all `w` wide. Lane `r` folds pair `r` from `+0.0` in ascending
/// index, one multiply then one add per element — bit-identical to one
/// sequential fold per pair (the oracle's `dot`), whatever the
/// instantiation.
///
/// # Panics
///
/// Panics if `a`, `b` and `out` differ in length, or the rows of `a`
/// and `b` are not all one width.
pub fn dot_rows(isa: Isa, a: &[&[f32]], b: &[&[f32]], out: &mut [f32]) {
    assert!(
        a.len() == out.len() && b.len() == out.len(),
        "one output per row pair"
    );
    let Some(w) = a.first().map(|row| row.len()) else {
        return;
    };
    assert!(
        a.iter().chain(b).all(|row| row.len() == w),
        "row pairs must share one width"
    );
    match isa.0 {
        Level::Generic => dot_tile_body::<GENERIC_DOT>(a, b, w, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` naming AVX2 or AVX-512 only comes from
        // `Isa::available`, which detected the feature on this host
        // (`avx512f` implies AVX2); every row is `w` wide (checked above).
        Level::Avx2 | Level::Avx512 => unsafe { avx2::dot_tile(a, b, w, out) },
    }
}

/// `acc[at[j]] += xs[j] · s[j]` over rows `w` wide, for positions `j` in
/// ascending order: one multiply, then one add per element.
#[inline(always)]
fn accumulate_body(xs: &[&[f32]], s: &[f32], at: &[u32], w: usize, acc: &mut [f32]) {
    for ((x, &s), &t) in xs.iter().zip(s).zip(at) {
        let row = &mut acc[t as usize * w..][..w];
        for (a, &v) in row.iter_mut().zip(*x) {
            *a += v * s;
        }
    }
}

/// The aggregate tile: `acc[at[j]][c] += xs[j][c] · s[j]` for positions
/// `j` in ascending order, where `acc` is `[rows, w]` row-major and every
/// row of `xs` is `w` wide. Each element takes one multiply, then one
/// add per position, never a fused multiply-add, so every target
/// element receives its contributions in position order — bit-identical
/// to the loop that folds one position after another (an unscaled
/// aggregate passes scales of `1.0`, and `x · 1.0 == x`). A run of
/// consecutive positions with one target keeps that target's columns in
/// registers and stores them once, whatever the instantiation's width.
///
/// # Panics
///
/// Panics if `xs`, `s` and `at` differ in length, a row of `xs` is not
/// `w` wide, `acc` is not whole rows, or a target is not a row of `acc`.
pub fn accumulate_rows(isa: Isa, xs: &[&[f32]], s: &[f32], at: &[u32], w: usize, acc: &mut [f32]) {
    assert!(
        s.len() == xs.len() && at.len() == xs.len(),
        "one scale and one target per row"
    );
    assert!(xs.iter().all(|x| x.len() == w), "rows must be w wide");
    let rows = acc.len().checked_div(w).unwrap_or(0);
    assert_eq!(rows * w, acc.len(), "accumulator must be [rows, w]");
    assert!(
        w == 0 || at.iter().all(|&t| (t as usize) < rows),
        "targets must be rows of the accumulator"
    );
    match isa.0 {
        Level::Generic => accumulate_body(xs, s, at, w, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_rows`; every row of `xs` is `w` wide and
        // every target a row of `acc` (checked above).
        Level::Avx2 | Level::Avx512 => unsafe { avx2::accumulate_tile(xs, s, at, w, acc) },
    }
}

/// The AVX2 dot and aggregate tiles, in explicit `std::arch` intrinsics
/// (the AVX-512 level runs them too).
///
/// Eight row pairs advance together, eight columns at a time: one
/// `_mm256_mul_ps` per row gives that row's eight products, an in-register
/// 8 × 8 transpose (`unpacklo`/`unpackhi`, `shuffle`, `permute2f128`)
/// turns them into eight column vectors — lane `r` of column `c` is row
/// `r`'s product at `c` — and one `_mm256_add_ps` per column, in
/// ascending order, folds them into the accumulator that started at
/// `+0.0`. Lane `r` therefore performs exactly the sequential fold of
/// pair `r`. A ragged last block of columns is loaded masked (nothing
/// past a row's end is touched) and only its real columns are added.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256, __m256i, _mm256_add_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_maskload_ps,
        _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    };

    /// `f32` lanes of one `__m256` register: the row pairs of one group.
    const YMM: usize = 8;

    /// Eight all-ones then eight zero lanes: the window from `8 - rem`
    /// masks a block's first `rem` columns.
    static TAIL: [i32; 2 * YMM] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// The transpose of the 8 × 8 block whose row `r` is `p[r]`: element
    /// `c` of the result holds column `c`, one lane per row.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(p: &[__m256; YMM]) -> [__m256; YMM] {
        // Pairs of rows interleaved, then quads, per 128-bit half…
        let t = [
            _mm256_unpacklo_ps(p[0], p[1]),
            _mm256_unpackhi_ps(p[0], p[1]),
            _mm256_unpacklo_ps(p[2], p[3]),
            _mm256_unpackhi_ps(p[2], p[3]),
            _mm256_unpacklo_ps(p[4], p[5]),
            _mm256_unpackhi_ps(p[4], p[5]),
            _mm256_unpacklo_ps(p[6], p[7]),
            _mm256_unpackhi_ps(p[6], p[7]),
        ];
        let q = [
            _mm256_shuffle_ps::<0x44>(t[0], t[2]),
            _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
            _mm256_shuffle_ps::<0x44>(t[1], t[3]),
            _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
            _mm256_shuffle_ps::<0x44>(t[4], t[6]),
            _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
            _mm256_shuffle_ps::<0x44>(t[5], t[7]),
            _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
        ];
        // …then the low halves of rows 0–3 and 4–7 are columns 0–3, the
        // high halves columns 4–7.
        [
            _mm256_permute2f128_ps::<0x20>(q[0], q[4]),
            _mm256_permute2f128_ps::<0x20>(q[1], q[5]),
            _mm256_permute2f128_ps::<0x20>(q[2], q[6]),
            _mm256_permute2f128_ps::<0x20>(q[3], q[7]),
            _mm256_permute2f128_ps::<0x31>(q[0], q[4]),
            _mm256_permute2f128_ps::<0x31>(q[1], q[5]),
            _mm256_permute2f128_ps::<0x31>(q[2], q[6]),
            _mm256_permute2f128_ps::<0x31>(q[3], q[7]),
        ]
    }

    /// Each row's products over columns `[i, i + 8)`; with `mask`, only
    /// the masked columns are loaded (the rest read as zero).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn products(
        a: &[&[f32]; YMM],
        b: &[&[f32]; YMM],
        i: usize,
        mask: Option<__m256i>,
    ) -> [__m256; YMM] {
        let mut p = [_mm256_setzero_ps(); YMM];
        for ((p, a), b) in p.iter_mut().zip(a).zip(b) {
            // SAFETY: an unmasked load reads `[i, i + 8)`, inside both
            // rows (`i + 8 <= w`, caller); a masked one reads only the
            // masked columns, all below `w`.
            *p = unsafe {
                let (a, b) = (a.as_ptr().add(i), b.as_ptr().add(i));
                match mask {
                    None => _mm256_mul_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b)),
                    Some(m) => _mm256_mul_ps(_mm256_maskload_ps(a, m), _mm256_maskload_ps(b, m)),
                }
            };
        }
        p
    }

    /// `G` groups of eight row pairs from row `r` (every group starting
    /// inside the block), their accumulators advancing side by side: `G`
    /// independent add chains.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn groups<const G: usize>(a: &[&[f32]], b: &[&[f32]], r: usize, w: usize) -> [__m256; G] {
        let mut ga = [[a[r]; YMM]; G];
        let mut gb = [[b[r]; YMM]; G];
        for (g, (ga, gb)) in ga.iter_mut().zip(&mut gb).enumerate() {
            let at = r + g * YMM;
            (*ga, *gb) = (super::dot_group(a, at), super::dot_group(b, at));
        }
        let mut acc = [_mm256_setzero_ps(); G];
        let mut i = 0;
        while i + YMM <= w {
            for ((acc, ga), gb) in acc.iter_mut().zip(&ga).zip(&gb) {
                for c in transpose(&products(ga, gb, i, None)) {
                    *acc = _mm256_add_ps(*acc, c);
                }
            }
            i += YMM;
        }
        if i < w {
            let rem = w - i;
            // SAFETY: the window `[8 - rem, 16 - rem)` lies inside `TAIL`
            // for `rem` in `1..8`.
            let m = unsafe { _mm256_loadu_si256(TAIL[YMM - rem..].as_ptr().cast()) };
            for ((acc, ga), gb) in acc.iter_mut().zip(&ga).zip(&gb) {
                let cols = transpose(&products(ga, gb, i, Some(m)));
                for &c in &cols[..rem] {
                    *acc = _mm256_add_ps(*acc, c);
                }
            }
        }
        acc
    }

    /// One block of `dot_rows`: two groups at a time while more than
    /// one is left.
    ///
    /// # Safety
    ///
    /// Every row of `a` and `b` is `w` wide and as many as `out` is long
    /// (checked by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_tile(a: &[&[f32]], b: &[&[f32]], w: usize, out: &mut [f32]) {
        let mut r = 0;
        while r < out.len() {
            let mut lanes = [0.0f32; 2 * YMM];
            let take = if out.len() - r > YMM {
                let acc = groups::<2>(a, b, r, w);
                // SAFETY: `lanes` holds sixteen floats.
                unsafe {
                    _mm256_storeu_ps(lanes.as_mut_ptr(), acc[0]);
                    _mm256_storeu_ps(lanes.as_mut_ptr().add(YMM), acc[1]);
                }
                2 * YMM
            } else {
                // SAFETY: as above.
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), groups::<1>(a, b, r, w)[0]) };
                YMM
            };
            let end = out.len().min(r + take);
            out[r..end].copy_from_slice(&lanes[..end - r]);
            r = end;
        }
    }

    /// `P` registers of one target row from column `c`, loaded once,
    /// advanced by every row of a run in order, stored once. `P` is a
    /// constant, so the accumulators stay in registers.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn accumulate_panel<const P: usize>(xs: &[&[f32]], s: &[f32], c: usize, row: &mut [f32]) {
        let dst = &mut row[c..c + P * YMM];
        let mut acc = [_mm256_setzero_ps(); P];
        for (q, a) in acc.iter_mut().enumerate() {
            // SAFETY: lanes `[8q, 8q + 8)` of `dst`, which is `8P` long.
            *a = unsafe { _mm256_loadu_ps(dst.as_ptr().add(q * YMM)) };
        }
        for (x, &sv) in xs.iter().zip(s) {
            let (x, sv) = (&x[c..c + P * YMM], _mm256_set1_ps(sv));
            for (q, a) in acc.iter_mut().enumerate() {
                // SAFETY: as above, inside `x`'s `8P` columns.
                let v = unsafe { _mm256_loadu_ps(x.as_ptr().add(q * YMM)) };
                *a = _mm256_add_ps(*a, _mm256_mul_ps(v, sv));
            }
        }
        for (q, a) in acc.iter().enumerate() {
            // SAFETY: as the load.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr().add(q * YMM), *a) };
        }
    }

    /// One run of `accumulate_rows`: every row of `xs` into `row`, in
    /// panels of 64, 32, 16 and 8 columns, then single columns.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn accumulate_run(xs: &[&[f32]], s: &[f32], row: &mut [f32]) {
        let w = row.len();
        let mut c = 0;
        while c + 8 * YMM <= w {
            accumulate_panel::<8>(xs, s, c, row);
            c += 8 * YMM;
        }
        if c + 4 * YMM <= w {
            accumulate_panel::<4>(xs, s, c, row);
            c += 4 * YMM;
        }
        if c + 2 * YMM <= w {
            accumulate_panel::<2>(xs, s, c, row);
            c += 2 * YMM;
        }
        if c + YMM <= w {
            accumulate_panel::<1>(xs, s, c, row);
            c += YMM;
        }
        for (c, a) in row.iter_mut().enumerate().skip(c) {
            for (x, &sv) in xs.iter().zip(s) {
                *a += x[c] * sv;
            }
        }
    }

    /// `accumulate_rows`, one run of equal targets at a time.
    ///
    /// # Safety
    ///
    /// Every row of `xs` is `w` wide and every target a row of `acc`
    /// (checked by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_tile(
        xs: &[&[f32]],
        s: &[f32],
        at: &[u32],
        w: usize,
        acc: &mut [f32],
    ) {
        let mut j = 0;
        while j < at.len() {
            let t = at[j];
            let end = at[j..]
                .iter()
                .position(|&u| u != t)
                .map_or(at.len(), |n| j + n);
            let row = &mut acc[t as usize * w..][..w];
            accumulate_run(&xs[j..end], &s[j..end], row);
            j = end;
        }
    }
}

/// The AVX-512 tiles, in explicit `std::arch` intrinsics.
///
/// Each output is one lane of a `__m512` accumulator that starts at
/// `+0.0` (or at the slab's value) and takes `_mm512_add_ps` of one
/// `_mm512_mul_ps` product per reduction step, in ascending order — the
/// same IEEE operations, in the same order, as the generic body. Column
/// panels cascade 64 → 32 → 16 lanes, and a ragged tail (`n % 16 ≠ 0`)
/// is one masked 16-lane panel whose masked-off lanes are neither
/// loaded nor stored, so every `n` stays on this level.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_add_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    /// `f32` lanes of one `__m512` register.
    const ZMM: usize = 16;

    /// Rows of a `y = x · W` tile: 4 rows × four 16-lane panels is 16
    /// of the 32 vector registers in accumulators, beside the four
    /// weight registers and the broadcast. Measured against 3 and 6
    /// rows (k = n = 64, 45k gathered rows in 104 slabs), both about
    /// 10 % slower. Divides [`BLOCK_ROWS`](super::BLOCK_ROWS).
    pub(super) const GEMM_ROWS: usize = 4;

    /// Slab rows of a `dW += xᵀ · dy` tile: 4 × four panels as above;
    /// 2, 6 and 8 rows measured 8–11 % slower on the same shape.
    const OUTER_ROWS: usize = 4;

    /// The mask of a ragged tail's `lanes` (`1..16`) low lanes.
    fn tail_mask(lanes: usize) -> __mmask16 {
        ((1u32 << lanes) - 1) as __mmask16
    }

    /// Lanes a panel access touches from its first column: all of `P`
    /// panels, or with `MASK` up to the highest lane set in `m`.
    fn reach<const P: usize, const MASK: bool>(m: __mmask16) -> usize {
        if MASK {
            (__mmask16::BITS - m.leading_zeros()) as usize
        } else {
            P * ZMM
        }
    }

    /// Loads `P` panels of `row` from column `j` (with `MASK`, the one
    /// panel's lanes set in `m`; the others read as zero and are never
    /// touched in memory).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load<const P: usize, const MASK: bool>(row: &[f32], j: usize, m: __mmask16) -> [__m512; P] {
        let src = &row[j..j + reach::<P, MASK>(m)];
        let mut v = [_mm512_setzero_ps(); P];
        for (q, v) in v.iter_mut().enumerate() {
            // SAFETY: an unmasked load reads lanes `[16q, 16q + 16)` and
            // `src` is `16P` long; a masked one reads only the lanes set
            // in `m`, all below `src.len()`.
            *v = unsafe {
                let at = src.as_ptr().add(q * ZMM);
                if MASK {
                    _mm512_maskz_loadu_ps(m, at)
                } else {
                    _mm512_loadu_ps(at)
                }
            };
        }
        v
    }

    /// Stores `P` panels into `row` from column `j` (with `MASK`, only
    /// the lanes set in `m`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store<const P: usize, const MASK: bool>(
        row: &mut [f32],
        j: usize,
        m: __mmask16,
        v: &[__m512; P],
    ) {
        let dst = &mut row[j..j + reach::<P, MASK>(m)];
        for (q, &v) in v.iter().enumerate() {
            // SAFETY: as in `load`, every lane written is inside `dst`.
            unsafe {
                let at = dst.as_mut_ptr().add(q * ZMM);
                if MASK {
                    _mm512_mask_storeu_ps(at, m, v);
                } else {
                    _mm512_storeu_ps(at, v);
                }
            }
        }
    }

    /// `acc[q] += xv · v[q]`, one multiply then one add per lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul_acc<const P: usize>(acc: &mut [__m512; P], xv: f32, v: &[__m512; P]) {
        let xv = _mm512_set1_ps(xv);
        for (a, &v) in acc.iter_mut().zip(v) {
            *a = _mm512_add_ps(*a, _mm512_mul_ps(xv, v));
        }
    }

    /// One register tile of `y = x · W`: `R` rows × `P` panels from
    /// column `j`, accumulated from `+0.0` in ascending `p` and stored
    /// once.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn gemm_panel<const R: usize, const P: usize, const MASK: bool>(
        xs: &[&[f32]; R],
        slab: &[f32],
        n: usize,
        j: usize,
        m: __mmask16,
        ys: &mut [f32],
    ) {
        let mut acc = [[_mm512_setzero_ps(); P]; R];
        for (p, wrow) in slab.chunks_exact(n).enumerate() {
            let w = load::<P, MASK>(wrow, j, m);
            for (a, x) in acc.iter_mut().zip(xs) {
                mul_acc(a, x[p], &w);
            }
        }
        for (a, y) in acc.iter().zip(ys.chunks_exact_mut(n)) {
            store::<P, MASK>(y, j, m, a);
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn gemm_row_tile<const R: usize>(xs: &[&[f32]; R], slab: &[f32], n: usize, ys: &mut [f32]) {
        let mut j = 0;
        while j + 4 * ZMM <= n {
            gemm_panel::<R, 4, false>(xs, slab, n, j, 0, ys);
            j += 4 * ZMM;
        }
        if j + 2 * ZMM <= n {
            gemm_panel::<R, 2, false>(xs, slab, n, j, 0, ys);
            j += 2 * ZMM;
        }
        if j + ZMM <= n {
            gemm_panel::<R, 1, false>(xs, slab, n, j, 0, ys);
            j += ZMM;
        }
        if j < n {
            gemm_panel::<R, 1, true>(xs, slab, n, j, tail_mask(n - j), ys);
        }
    }

    /// One block of `gemm_rows`, shapes checked by the caller.
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_tile(xs: &[&[f32]], slab: &[f32], n: usize, ys: &mut [f32]) {
        let mut xt = xs.chunks_exact(GEMM_ROWS);
        let mut yt = ys.chunks_exact_mut(GEMM_ROWS * n);
        for (x, y) in (&mut xt).zip(&mut yt) {
            let x: &[&[f32]; GEMM_ROWS] = x.try_into().expect("tile height");
            gemm_row_tile(x, slab, n, y);
        }
        let ytail = yt.into_remainder().chunks_exact_mut(n);
        for (x, y) in xt.remainder().iter().zip(ytail) {
            gemm_row_tile::<1>(&[x], slab, n, y);
        }
    }

    /// One register tile of `dW += xᵀ · dy`: `I` slab rows from `i` ×
    /// `P` panels from column `j`, loaded once, advanced over every row
    /// of the block in ascending order, stored once.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn outer_panel<const I: usize, const P: usize, const MASK: bool>(
        xs: &[&[f32]],
        dys: &[&[f32]],
        i: usize,
        n: usize,
        j: usize,
        m: __mmask16,
        tile: &mut [f32],
    ) {
        let mut acc = [[_mm512_setzero_ps(); P]; I];
        for (a, t) in acc.iter_mut().zip(tile.chunks_exact(n)) {
            *a = load::<P, MASK>(t, j, m);
        }
        for (x, dy) in xs.iter().zip(dys) {
            let d = load::<P, MASK>(dy, j, m);
            let xi: &[f32; I] = x[i..i + I].try_into().expect("tile height");
            for (a, &xv) in acc.iter_mut().zip(xi) {
                mul_acc(a, xv, &d);
            }
        }
        for (a, t) in acc.iter().zip(tile.chunks_exact_mut(n)) {
            store::<P, MASK>(t, j, m, a);
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn outer_row_tile<const I: usize>(
        xs: &[&[f32]],
        dys: &[&[f32]],
        i: usize,
        n: usize,
        tile: &mut [f32],
    ) {
        let mut j = 0;
        while j + 4 * ZMM <= n {
            outer_panel::<I, 4, false>(xs, dys, i, n, j, 0, tile);
            j += 4 * ZMM;
        }
        if j + 2 * ZMM <= n {
            outer_panel::<I, 2, false>(xs, dys, i, n, j, 0, tile);
            j += 2 * ZMM;
        }
        if j + ZMM <= n {
            outer_panel::<I, 1, false>(xs, dys, i, n, j, 0, tile);
            j += ZMM;
        }
        if j < n {
            outer_panel::<I, 1, true>(xs, dys, i, n, j, tail_mask(n - j), tile);
        }
    }

    /// One block of `outer_rows`, shapes checked by the caller.
    #[target_feature(enable = "avx512f")]
    pub(super) fn outer_tile(xs: &[&[f32]], dys: &[&[f32]], n: usize, slab: &mut [f32]) {
        let mut tiles = slab.chunks_exact_mut(OUTER_ROWS * n);
        let mut i = 0;
        for tile in &mut tiles {
            outer_row_tile::<OUTER_ROWS>(xs, dys, i, n, tile);
            i += OUTER_ROWS;
        }
        for tile in tiles.into_remainder().chunks_exact_mut(n) {
            outer_row_tile::<1>(xs, dys, i, n, tile);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 * 0.37 + seed).sin() * 2.0) - 0.5)
            .collect()
    }

    #[test]
    fn zero_width_dims_are_empty_sums_not_panics() {
        // wcols == 0: every kernel degenerates to the empty sum.
        let mut y = [1.0f32; 3];
        gemm_row_tb_scalar(&[], &[], 0, &mut y);
        assert_eq!(y, [0.0; 3]);
        let mut empty: [f32; 0] = [];
        gemm_row_scalar(&[1.0], &[], 0, &mut empty);
        let mut slab: [f32; 0] = [];
        outer_accum_scalar(&[1.0], &[], &mut slab);
        for isa in Isa::available() {
            gemm_rows(isa, [&[1.0f32][..]], &[], 0, &mut empty);
            outer_rows(isa, [(&[1.0f32][..], &[][..])], 0, &mut slab);
        }
    }

    #[test]
    fn dot_tile_lanes_are_sequential_folds() {
        // 13 rows = one full group of 8 (AVX2) or three of 4 (generic)
        // plus a short one; widths below, at and past a column block.
        for w in [0, 1, 7, 8, 9, 64, 70] {
            let (a, b) = (pattern(13 * w, 0.3), pattern(13 * w, 1.7));
            let ra: Vec<&[f32]> = (0..13).map(|r| &a[r * w..][..w]).collect();
            let rb: Vec<&[f32]> = (0..13).map(|r| &b[r * w..][..w]).collect();
            let want: Vec<u32> = ra
                .iter()
                .zip(&rb)
                .map(|(x, y)| x.iter().zip(*y).fold(0.0f32, |s, (p, q)| s + p * q))
                .map(f32::to_bits)
                .collect();
            for isa in Isa::available() {
                let mut got = [f32::NAN; 13];
                dot_rows(isa, &ra, &rb, &mut got);
                assert_eq!(got.map(f32::to_bits).to_vec(), want, "{isa:?} w={w}");
            }
        }
    }

    #[test]
    fn accumulates_into_preexisting_y() {
        let x = [1.0f32];
        let w = [2.0f32, 3.0];
        let mut y = [10.0f32, 20.0];
        gemm_row_scalar(&x, &w, 2, &mut y);
        assert_eq!(y, [12.0, 23.0]);
    }

    #[test]
    fn runs_are_maximal_and_cover_the_range() {
        let types = [3usize, 3, 3, 0, 5, 5, 3];
        let mut seen = Vec::new();
        for_each_run(1..7, |r| types[r], |ty, run| seen.push((ty, run)));
        assert_eq!(seen, [(3, 1..3), (0, 3..4), (5, 4..6), (3, 6..7)]);
        for_each_run(4..4, |r| types[r], |_, _| panic!("empty range has no run"));
    }

    #[test]
    fn tiles_match_the_row_kernels_on_every_instantiation() {
        // 15 rows = two AVX2 tiles (three AVX-512 ones) + single-row
        // tails; 115 columns = 64 + 32 + 16 + a masked 3-lane panel on
        // AVX-512, seven 16-panels + 3 scalar columns on AVX2, three
        // 32-panels + two 8-panels + 3 scalar columns on the generic body.
        let (rows, k, n) = (15, 9, 115);
        let (x, w, dy) = (
            pattern(rows * k, 0.3),
            pattern(k * n, 0.8),
            pattern(rows * n, 1.1),
        );
        let (mut want_y, mut want_g) = (vec![0.0f32; rows * n], pattern(k * n, 2.0));
        let start_g = want_g.clone();
        for r in 0..rows {
            gemm_row_scalar(&x[r * k..][..k], &w, n, &mut want_y[r * n..][..n]);
            outer_accum_scalar(&x[r * k..][..k], &dy[r * n..][..n], &mut want_g);
        }
        let mut wt = vec![0.0f32; k * n];
        pack_transposed(&w, k, n, &mut wt);
        assert_eq!(wt[3 * k + 2], w[2 * n + 3]);
        for isa in Isa::available() {
            let (mut y, mut g) = (vec![f32::NAN; rows * n], start_g.clone());
            gemm_rows(isa, x.chunks_exact(k), &w, n, &mut y);
            outer_rows(isa, x.chunks_exact(k).zip(dy.chunks_exact(n)), n, &mut g);
            assert_eq!((y, g), (want_y.clone(), want_g.clone()), "{isa:?}");
        }
    }
}

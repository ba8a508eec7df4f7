//! The GEMM tiles (`gemm_rows`, `outer_rows`, and `x · Wᵀ` through
//! `pack_transposed`) must be **bit-identical** to the scalar row
//! references: ragged `k`/`n`, run lengths around the tile height and
//! the block size, gathered rows, signed zeros and non-finite values —
//! on the generic instantiation **and** every one the host detects
//! (AVX2, AVX-512), so the narrower bodies are exercised on wide
//! machines too. Fixed shapes past the proptests' range reach every
//! AVX-512 column panel and its masked tail. `matmul_into`, the plain
//! `out = x · w` on the same tiles, is held to the same references, and
//! the traversal's aggregate tile (`accumulate_rows`) to the loop that
//! folds one scaled row after another.

use hector_tensor::matmul_into;
use hector_tensor::microkernel::{
    accumulate_rows, gemm_row_scalar, gemm_row_tb_scalar, gemm_rows, outer_accum_scalar,
    outer_rows, pack_transposed, Isa, BLOCK_ROWS,
};
use proptest::prelude::*;

/// Bit patterns of a float slice — equality on these is exact
/// bit-identity (NaN payloads included), not `==` (which NaN fails).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run lengths the tile proptests draw from: `0..=2R + 1` for the
/// tallest tile (`R = 6`), then lengths straddling one and two gather
/// blocks.
fn run_len() -> impl Strategy<Value = usize> {
    let b = BLOCK_ROWS;
    (0usize..20).prop_map(move |i| match i {
        0..=13 => i,
        14..=16 => b + i - 15,
        _ => 2 * b + i - 18,
    })
}

/// How the tile proptests fill a buffer: the share of (randomly signed)
/// zeros, and whether `inf` / `NaN` / `-0.0` are sprinkled in.
#[derive(Clone, Copy, Debug)]
struct Fill {
    zero_pct: u64,
    special: bool,
}

fn fill() -> impl Strategy<Value = Fill> {
    (0u64..3, any::<bool>()).prop_map(|(z, special)| Fill {
        zero_pct: z * 50,
        special,
    })
}

/// Deterministic values from a SplitMix64 stream.
fn values(len: usize, seed: &mut u64, fill: Fill) -> Vec<f32> {
    let mut next = || {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| {
            let r = next();
            if r % 100 < fill.zero_pct {
                return if r & 128 == 0 { 0.0 } else { -0.0 };
            }
            if fill.special && (r >> 8) % 13 == 0 {
                return [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0][(r >> 16) as usize % 4];
            }
            ((r >> 20) % 4001) as f32 / 1000.0 - 2.0
        })
        .collect()
}

/// `rows` gathered rows of width `k` out of a shuffled pool (with
/// repeats): the tiles take row references, not a dense matrix.
fn gathered(pool: &[f32], k: usize, rows: usize, seed: u64) -> Vec<&[f32]> {
    let pool_rows = pool.len() / k;
    (0..rows as u64)
        .map(|r| {
            let i = (seed
                .wrapping_mul(31)
                .wrapping_add(r.wrapping_mul(0x9E37_79B9))
                >> 7) as usize;
            &pool[(i % pool_rows) * k..][..k]
        })
        .collect()
}

/// Bit patterns with every NaN folded to one: *whether* an output is
/// NaN is part of the tile contract, its sign and payload are not (Rust
/// leaves them unspecified, and they differ with the operand order the
/// compiler picks for an addition of two NaNs).
fn tile_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

proptest! {
    #[test]
    fn tile_gemm_is_bit_identical_to_the_scalar_rows(
        (k, n, rows) in (1usize..=70, 1usize..=70, run_len()),
        (xfill, wfill) in (fill(), fill()),
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let pool = values((rows + 3) * k, &mut s, xfill);
        let slab = values(k * n, &mut s, wfill);
        let xs = gathered(&pool, k, rows, seed);
        // Reference: one scalar row per input row from a zeroed output.
        let mut want = vec![0.0f32; rows * n];
        for (x, y) in xs.iter().zip(want.chunks_exact_mut(n)) {
            gemm_row_scalar(x, &slab, n, y);
        }
        for isa in Isa::available() {
            let mut got = vec![f32::NAN; rows * n]; // tiles overwrite
            gemm_rows(isa, xs.iter().copied(), &slab, n, &mut got);
            prop_assert_eq!(tile_bits(&got), tile_bits(&want), "{:?} k={} n={} rows={}", isa, k, n, rows);
        }
    }

    #[test]
    fn tile_transposed_gemm_is_bit_identical_to_the_scalar_dots(
        (k, n, rows) in (1usize..=70, 1usize..=70, run_len()),
        (xfill, wfill) in (fill(), fill()),
        seed in any::<u64>(),
    ) {
        // y = x · Wᵀ with W [n, k]: x is k wide, y is n wide.
        let mut s = seed;
        let pool = values((rows + 3) * k, &mut s, xfill);
        let slab = values(n * k, &mut s, wfill);
        let xs = gathered(&pool, k, rows, seed);
        let mut want = vec![0.0f32; rows * n];
        for (x, y) in xs.iter().zip(want.chunks_exact_mut(n)) {
            gemm_row_tb_scalar(x, &slab, k, y);
        }
        let mut packed = vec![0.0f32; n * k];
        pack_transposed(&slab, n, k, &mut packed);
        for isa in Isa::available() {
            let mut got = vec![f32::NAN; rows * n];
            gemm_rows(isa, xs.iter().copied(), &packed, n, &mut got);
            prop_assert_eq!(tile_bits(&got), tile_bits(&want), "{:?} k={} n={} rows={}", isa, k, n, rows);
        }
    }

    #[test]
    fn tile_outer_is_bit_identical_to_the_scalar_rank1_updates(
        (k, n, rows) in (1usize..=70, 1usize..=70, run_len()),
        (xfill, dfill) in (fill(), fill()),
        from_zero in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let xpool = values((rows + 3) * k, &mut s, xfill);
        let dpool = values((rows + 2) * n, &mut s, dfill);
        let xs = gathered(&xpool, k, rows, seed);
        let dys = gathered(&dpool, n, rows, seed ^ 0x55);
        // A gradient slab mid-accumulation (any values), or a freshly
        // zeroed one.
        let start = if from_zero {
            vec![0.0f32; k * n]
        } else {
            values(k * n, &mut s, Fill { zero_pct: 0, special: true })
        };
        let mut want = start.clone();
        for (x, dy) in xs.iter().zip(&dys) {
            outer_accum_scalar(x, dy, &mut want);
        }
        for isa in Isa::available() {
            let mut got = start.clone();
            outer_rows(isa, xs.iter().copied().zip(dys.iter().copied()), n, &mut got);
            prop_assert_eq!(tile_bits(&got), tile_bits(&want), "{:?} k={} n={} rows={}", isa, k, n, rows);
        }
    }
}

proptest! {
    /// `n = 1`, the attention weight-vector gradient: the tile's lanes run
    /// over `k` instead of a single-lane panel, and every slab element
    /// must still receive its rows in ascending order — runs around one
    /// and two gather blocks (48, 96), `k` past a column panel, a `dy`
    /// with `±inf` / `NaN` / `-0.0`.
    #[test]
    fn tile_outer_n1_lanes_over_k_match_the_scalar_rank1_updates(
        k in 1usize..=140,
        rows in prop_oneof![
            Just(BLOCK_ROWS - 1), Just(BLOCK_ROWS), Just(BLOCK_ROWS + 1),
            Just(2 * BLOCK_ROWS - 1), Just(2 * BLOCK_ROWS), Just(2 * BLOCK_ROWS + 1),
            0usize..=20,
        ],
        (xfill, dfill) in (fill(), fill()),
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let xpool = values((rows + 3) * k, &mut s, xfill);
        let dy = values(rows, &mut s, Fill { special: true, ..dfill });
        let xs = gathered(&xpool, k, rows, seed);
        let start = values(k, &mut s, Fill { zero_pct: 0, special: false });
        let mut want = start.clone();
        for (x, d) in xs.iter().zip(dy.chunks_exact(1)) {
            outer_accum_scalar(x, d, &mut want);
        }
        for isa in Isa::available() {
            let mut got = start.clone();
            outer_rows(isa, xs.iter().copied().zip(dy.chunks_exact(1)), 1, &mut got);
            prop_assert_eq!(tile_bits(&got), tile_bits(&want), "{:?} k={} rows={}", isa, k, rows);
        }
    }
}

/// How the aggregate-tile proptest lays out its targets over the
/// positions.
#[derive(Clone, Copy, Debug)]
enum Targets {
    /// Every position into one row: one run.
    One,
    /// Two rows in turn: runs of one.
    Alternating,
    /// Rows drawn from a few, so a row recurs after others.
    Scattered,
    /// Runs of random length over random rows.
    Runs,
}

fn targets(layout: Targets, n: usize, rows: usize, seed: &mut u64) -> Vec<u32> {
    let mut next = || {
        *seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (*seed >> 33) as usize
    };
    let mut at = Vec::with_capacity(n);
    while at.len() < n {
        let (row, len) = match layout {
            Targets::One => (rows - 1, n),
            Targets::Alternating => (at.len() % 2, 1),
            Targets::Scattered => (next() % rows, 1),
            Targets::Runs => (next() % rows, 1 + next() % 9),
        };
        at.extend(std::iter::repeat_n(row as u32, len.min(n - at.len())));
    }
    at
}

proptest! {
    /// The aggregate tile on every instantiation: `acc[at[j]] += xs[j] ·
    /// s[j]` in position order, bit for bit the loop that folds one
    /// position after another — widths across every column panel (8, 16,
    /// 32, 64) and ragged ones, one target, alternating targets, targets
    /// recurring after others, runs; unscaled (`1.0`) and general scales;
    /// `±0`, `±inf` and `NaN` in rows and scales.
    #[test]
    fn tile_accumulate_rows_matches_the_scalar_loop(
        w in prop_oneof![Just(8usize), Just(16), Just(32), Just(64), 0usize..=70],
        n in 0usize..=40,
        layout in prop_oneof![
            Just(Targets::One), Just(Targets::Alternating),
            Just(Targets::Scattered), Just(Targets::Runs),
        ],
        unscaled in any::<bool>(),
        (xfill, sfill) in (fill(), fill()),
        seed in any::<u64>(),
    ) {
        let rows = 5;
        let mut s = seed;
        let xpool = values((n + 3) * w.max(1), &mut s, xfill);
        let xs: Vec<&[f32]> = if w == 0 {
            vec![&[]; n]
        } else {
            gathered(&xpool, w, n, seed)
        };
        let scales = if unscaled { vec![1.0; n] } else { values(n, &mut s, sfill) };
        let at = targets(layout, n, rows, &mut s);
        let start = values(rows * w, &mut s, Fill { zero_pct: 20, special: false });
        let mut want = start.clone();
        for ((x, &sc), &t) in xs.iter().zip(&scales).zip(&at) {
            for (a, &v) in want[t as usize * w..][..w].iter_mut().zip(*x) {
                *a += v * sc;
            }
        }
        for isa in Isa::available() {
            let mut got = start.clone();
            accumulate_rows(isa, &xs, &scales, &at, w, &mut got);
            prop_assert_eq!(tile_bits(&got), tile_bits(&want), "{:?} w={} {:?}", isa, w, layout);
        }
    }
}

/// The lane-ragged dims as a plain (non-proptest) exhaustive check:
/// every `(k, n)` pair from {1, 7, 9, 31, 33}² through all three tiles
/// on every instantiation, over a run of 7 rows with zeros and `-0.0`.
#[test]
fn ragged_dim_matrix_is_bit_identical() {
    const RAGGED: [usize; 5] = [1, 7, 9, 31, 33];
    let fill = Fill {
        zero_pct: 50,
        special: false,
    };
    let rows = 7;
    for k in RAGGED {
        for n in RAGGED {
            let mut s = (k * 100 + n) as u64;
            let (x, dy) = (
                values(rows * k, &mut s, fill),
                values(rows * n, &mut s, fill),
            );
            let (slab, start) = (values(k * n, &mut s, fill), values(k * n, &mut s, fill));
            let (mut want_y, mut want_t, mut want_g) = (
                vec![0.0f32; rows * n],
                vec![0.0f32; rows * n],
                start.clone(),
            );
            for r in 0..rows {
                let (xr, yr) = (&x[r * k..][..k], r * n..(r + 1) * n);
                gemm_row_scalar(xr, &slab, n, &mut want_y[yr.clone()]);
                gemm_row_tb_scalar(xr, &slab, k, &mut want_t[yr.clone()]);
                outer_accum_scalar(xr, &dy[yr], &mut want_g);
            }
            let mut packed = vec![0.0f32; k * n];
            pack_transposed(&slab, n, k, &mut packed);
            for isa in Isa::available() {
                let mut y = vec![f32::NAN; rows * n];
                gemm_rows(isa, x.chunks_exact(k), &slab, n, &mut y);
                assert_eq!(bits(&y), bits(&want_y), "{isa:?} x·W k={k} n={n}");
                gemm_rows(isa, x.chunks_exact(k), &packed, n, &mut y);
                assert_eq!(bits(&y), bits(&want_t), "{isa:?} x·Wᵀ k={k} n={n}");
                let mut g = start.clone();
                outer_rows(isa, x.chunks_exact(k).zip(dy.chunks_exact(n)), n, &mut g);
                assert_eq!(bits(&g), bits(&want_g), "{isa:?} dW k={k} n={n}");
            }
        }
    }
}

/// The generic body is always the first instantiation offered, and the
/// production choice is the last (widest) one.
#[test]
fn generic_instantiation_is_always_available() {
    let all: Vec<Isa> = Isa::available().collect();
    assert_eq!(all[0], Isa::GENERIC);
    assert_eq!(Isa::best(), *all.last().expect("generic at least"));
}

/// A host that reports `avx512f` runs the AVX-512 tiles: generic, AVX2
/// and AVX-512 are offered, and production takes the widest.
#[cfg(target_arch = "x86_64")]
#[test]
fn avx512_hosts_run_the_avx512_tiles() {
    if !std::arch::is_x86_feature_detected!("avx512f") {
        return;
    }
    let all: Vec<Isa> = Isa::available().collect();
    assert_eq!(all.len(), 3, "{all:?}");
    assert_eq!(format!("{:?}", Isa::best()), "Isa(Avx512)");
}

/// Fixed shapes past the proptests' `1..=70` range: widths that cover
/// every AVX-512 column panel (64, 32, 16) and the masked tail, run
/// lengths around one gather block, `inf` / `NaN` / `-0.0` in inputs and
/// slabs — all three tiles on every instantiation.
#[test]
fn wide_fixed_shapes_are_bit_identical_on_every_instantiation() {
    let special = Fill {
        zero_pct: 20,
        special: true,
    };
    for n in [80, 96, 115, 128, 129] {
        for k in [64, 128] {
            for rows in [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1] {
                let mut s = (n * 1_000 + k * 10 + rows) as u64;
                let xpool = values((rows + 3) * k, &mut s, special);
                let dpool = values((rows + 2) * n, &mut s, special);
                let slab = values(k * n, &mut s, special);
                let start = values(k * n, &mut s, special);
                let xs = gathered(&xpool, k, rows, s);
                let dys = gathered(&dpool, n, rows, s ^ 0x55);
                let mut packed = vec![0.0f32; k * n];
                pack_transposed(&slab, n, k, &mut packed);
                let (mut want_y, mut want_t, mut want_g) = (
                    vec![0.0f32; rows * n],
                    vec![0.0f32; rows * n],
                    start.clone(),
                );
                for (r, x) in xs.iter().enumerate() {
                    gemm_row_scalar(x, &slab, n, &mut want_y[r * n..][..n]);
                    gemm_row_tb_scalar(x, &slab, k, &mut want_t[r * n..][..n]);
                    outer_accum_scalar(x, dys[r], &mut want_g);
                }
                for isa in Isa::available() {
                    let shape = format!("{isa:?} k={k} n={n} rows={rows}");
                    let mut y = vec![f32::NAN; rows * n];
                    gemm_rows(isa, xs.iter().copied(), &slab, n, &mut y);
                    assert_eq!(tile_bits(&y), tile_bits(&want_y), "x·W {shape}");
                    gemm_rows(isa, xs.iter().copied(), &packed, n, &mut y);
                    assert_eq!(tile_bits(&y), tile_bits(&want_t), "x·Wᵀ {shape}");
                    let mut g = start.clone();
                    outer_rows(isa, xs.iter().copied().zip(dys.iter().copied()), n, &mut g);
                    assert_eq!(tile_bits(&g), tile_bits(&want_g), "dW {shape}");
                }
            }
        }
    }
}

/// `matmul_into` overwrites `out` with `x · w`: the bits of one scalar
/// row per input row from `+0.0`, whatever `out` held (here NaN), over
/// ragged `k`/`n` and row counts past one gather block. `k = 0` writes
/// zeros, `n = 0` is a no-op, and a zero input meeting an `inf` weight
/// is `NaN`, never skipped.
#[test]
fn matmul_into_overwrites_out_with_the_scalar_rows() {
    let fill = Fill {
        zero_pct: 20,
        special: false,
    };
    for (m, k, n) in [
        (5, 7, 9),
        (13, 33, 31),
        (BLOCK_ROWS + 1, 64, 115),
        (3, 0, 5),
        (4, 6, 0),
        (0, 3, 4),
    ] {
        let mut s = (m * 10_000 + k * 100 + n) as u64;
        let x = values(m * k, &mut s, fill);
        let w = values(k * n, &mut s, fill);
        let mut want = vec![0.0f32; m * n];
        for r in 0..m {
            gemm_row_scalar(&x[r * k..][..k], &w, n, &mut want[r * n..][..n]);
        }
        let mut out = vec![f32::NAN; m * n];
        matmul_into(&x, &w, &mut out, m, k, n);
        assert_eq!(bits(&out), bits(&want), "m={m} k={k} n={n}");
    }
    let mut out = [f32::NAN; 2];
    matmul_into(
        &[0.0, 1.0],
        &[f32::INFINITY, 2.0, 3.0, 4.0],
        &mut out,
        1,
        2,
        2,
    );
    assert!(out[0].is_nan(), "0 × inf must be NaN, got {}", out[0]);
    assert_eq!(out[1], 4.0);
}

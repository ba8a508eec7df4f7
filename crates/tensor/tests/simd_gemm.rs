//! SIMD tail handling: blocked and scalar GEMM microkernels must be
//! **bit-identical** — per-output accumulation order never changes, only
//! the register layout — including at dimensions that are not a multiple
//! of the lane width (scalar-tail coverage at 1, 7, 9, 31, 33) and for
//! non-finite weight slabs flowing through the zero-skip gate.
//!
//! The segment tiles (`gemm_rows`, `outer_rows`, and `x · Wᵀ` through
//! `pack_transposed`) are pinned against the same scalar row references:
//! ragged `k`/`n`, run lengths around the tile height and the block
//! size, gathered rows, signed zeros and non-finite values — on the
//! generic instantiation **and** every one the host detects (AVX2,
//! AVX-512), so the narrower bodies are exercised on wide machines too.
//! Fixed shapes past the proptests' range reach every AVX-512 column
//! panel and its masked tail.

use hector_tensor::microkernel::{
    gemm_row_blocked, gemm_row_scalar, gemm_row_tb_blocked, gemm_row_tb_scalar, gemm_rows,
    outer_accum_blocked, outer_accum_scalar, outer_rows, pack_transposed, Isa, BLOCK, BLOCK_ROWS,
    LANES,
};
use proptest::prelude::*;

/// The lane-ragged dims the satellite spec pins, plus panel-aligned
/// sizes so both the main blocks and the tails get coverage.
const DIMS: &[usize] = &[1, 7, 9, 31, 33, LANES, BLOCK, 2 * BLOCK];
const RAGGED_DIMS: &[usize] = &[1, 7, 9, 31, 33];

/// Strategy: an index pair into [`DIMS`].
fn dims() -> impl Strategy<Value = (usize, usize)> {
    (0..DIMS.len(), 0..DIMS.len()).prop_map(|(i, j)| (DIMS[i], DIMS[j]))
}

proptest! {
    #[test]
    fn blocked_gemm_row_is_bit_identical_to_scalar(
        (k, n) in dims(),
        seed in 0u32..1000,
    ) {
        let (x, w) = deterministic_inputs(k, n, seed);
        for skip in [false, true] {
            let mut yb = vec![0.5f32; n];
            let mut ys = yb.clone();
            gemm_row_blocked(&x, &w, n, skip, &mut yb);
            gemm_row_scalar(&x, &w, n, skip, &mut ys);
            prop_assert_eq!(bits(&yb), bits(&ys), "k={} n={} skip={}", k, n, skip);
        }
    }

    #[test]
    fn blocked_tb_is_bit_identical_to_scalar(
        (k, rows) in dims(),
        seed in 0u32..1000,
    ) {
        let (_, w) = deterministic_inputs(rows, k, seed);
        let x: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.7 + seed as f32 * 0.01).cos()).collect();
        let mut yb = vec![0.0f32; rows];
        let mut ys = yb.clone();
        gemm_row_tb_blocked(&x, &w[..rows * k], k, &mut yb);
        gemm_row_tb_scalar(&x, &w[..rows * k], k, &mut ys);
        prop_assert_eq!(bits(&yb), bits(&ys), "rows={} k={}", rows, k);
    }

    #[test]
    fn blocked_outer_is_bit_identical_to_scalar(
        (m, n) in dims(),
        seed in 0u32..1000,
    ) {
        let (x, base) = deterministic_inputs(m, n, seed);
        let dy: Vec<f32> = (0..n).map(|j| base[j] * 0.5 - 0.1).collect();
        for skip in [false, true] {
            let mut gb = base.clone();
            let mut gs = base.clone();
            outer_accum_blocked(&x, &dy, &mut gb, skip);
            outer_accum_scalar(&x, &dy, &mut gs, skip);
            prop_assert_eq!(bits(&gb), bits(&gs), "m={} n={} skip={}", m, n, skip);
        }
    }

    #[test]
    fn nonfinite_slabs_agree_through_the_gate(
        (k, n) in dims(),
        poison_at in 0usize..4096,
        poison_inf in 0u8..2,
    ) {
        // A slab with an injected inf/NaN: with the skip gate OFF (the
        // caller detected non-finiteness) blocked and scalar must
        // propagate the identical NaN pattern; zeros in x must NOT hide
        // it (0 × inf = NaN).
        let (x, _) = deterministic_inputs(k, n, 17);
        let mut w = vec![1.0f32; k * n];
        let poison = poison_at % (k * n);
        w[poison] = if poison_inf == 0 { f32::INFINITY } else { f32::NAN };
        let mut yb = vec![0.0f32; n];
        let mut ys = vec![0.0f32; n];
        gemm_row_blocked(&x, &w, n, false, &mut yb);
        gemm_row_scalar(&x, &w, n, false, &mut ys);
        prop_assert_eq!(bits(&yb), bits(&ys), "k={} n={}", k, n);
        // And the finiteness contract itself: if the poisoned weight row
        // meets a zero input element with the gate off, the output must
        // be NaN there (0 × inf / 0 × NaN), never silently skipped.
        if x[poison / n] == 0.0 {
            prop_assert!(
                yb[poison % n].is_nan(),
                "0 × non-finite must poison, got {}",
                yb[poison % n]
            );
        }
    }
}

/// Deterministic pseudo-random inputs: x is k wide with one injected
/// zero (exercising the skip path), w is k×n.
fn deterministic_inputs(k: usize, n: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let f = |i: usize, s: f32| ((i as f32).mul_add(0.618, s).sin() * 2.5) - 0.3;
    let mut x: Vec<f32> = (0..k).map(|i| f(i, seed as f32 * 0.01)).collect();
    if k > 2 {
        x[seed as usize % k] = 0.0;
    }
    let w: Vec<f32> = (0..k * n).map(|i| f(i, 1.7 + seed as f32 * 0.02)).collect();
    (x, w)
}

/// Bit patterns of a float slice — equality on these is exact
/// bit-identity (NaN payloads included), not `==` (which NaN fails).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The exact dims the satellite spec names, as a plain (non-proptest)
/// exhaustive check: every (k, n) pair from {1, 7, 9, 31, 33}² through
/// all three kernels.
#[test]
fn ragged_dim_matrix_is_bit_identical() {
    for &k in RAGGED_DIMS {
        for &n in RAGGED_DIMS {
            let (x, w) = deterministic_inputs(k, n, 42);
            let mut yb = vec![0.0f32; n];
            let mut ys = vec![0.0f32; n];
            gemm_row_blocked(&x, &w, n, true, &mut yb);
            gemm_row_scalar(&x, &w, n, true, &mut ys);
            assert_eq!(bits(&yb), bits(&ys), "k={k} n={n}");

            let xn: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
            let mut tb = vec![0.0f32; k];
            let mut ts = vec![0.0f32; k];
            gemm_row_tb_blocked(&xn, &w[..k * n], n, &mut tb);
            gemm_row_tb_scalar(&xn, &w[..k * n], n, &mut ts);
            assert_eq!(bits(&tb), bits(&ts), "tb k={k} n={n}");

            let dy: Vec<f32> = (0..n).map(|i| (i as f32 * 0.9).sin() + 0.2).collect();
            let mut gb = w.clone();
            let mut gs = w.clone();
            outer_accum_blocked(&x, &dy, &mut gb, true);
            outer_accum_scalar(&x, &dy, &mut gs, true);
            assert_eq!(bits(&gb), bits(&gs), "outer k={k} n={n}");
        }
    }
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

fn finite(v: &[f32]) -> bool {
    v.iter().all(|x| x.is_finite())
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
        // Reference: one scalar row per input row from a zeroed output,
        // gate off — and, over a finite slab, gate on as well (the
        // signed-zero argument: skipping changes nothing).
        let mut want = vec![0.0f32; rows * n];
        for (x, y) in xs.iter().zip(want.chunks_exact_mut(n)) {
            gemm_row_scalar(x, &slab, n, false, y);
            if finite(&slab) {
                let mut skipped = vec![0.0f32; n];
                gemm_row_scalar(x, &slab, n, true, &mut skipped);
                prop_assert_eq!(tile_bits(&skipped), tile_bits(y), "skip gate k={} n={}", k, n);
            }
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
        // zeroed one — where the gated skip must change nothing either.
        let start = if from_zero {
            vec![0.0f32; k * n]
        } else {
            values(k * n, &mut s, Fill { zero_pct: 0, special: true })
        };
        let mut want = start.clone();
        for (x, dy) in xs.iter().zip(&dys) {
            outer_accum_scalar(x, dy, &mut want, false);
        }
        if from_zero {
            let mut gated = start.clone();
            for (x, dy) in xs.iter().zip(&dys) {
                outer_accum_scalar(x, dy, &mut gated, finite(dy));
            }
            prop_assert_eq!(tile_bits(&gated), tile_bits(&want), "skip gate k={} n={}", k, n);
        }
        for isa in Isa::available() {
            let mut got = start.clone();
            outer_rows(isa, xs.iter().copied().zip(dys.iter().copied()), n, &mut got);
            prop_assert_eq!(tile_bits(&got), tile_bits(&want), "{:?} k={} n={} rows={}", isa, k, n, rows);
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
                    gemm_row_scalar(x, &slab, n, false, &mut want_y[r * n..][..n]);
                    gemm_row_tb_scalar(x, &slab, k, &mut want_t[r * n..][..n]);
                    outer_accum_scalar(x, dys[r], &mut want_g, false);
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

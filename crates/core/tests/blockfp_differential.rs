//! Differential property suite for the tiled BlockFp GEMM engine.
//!
//! Two layers of guarantees, mirroring HADES/HEAM-style systematic
//! sweeps over block structure and operand distributions:
//!
//! 1. **Bit-identity** — `BlockFpGemm::execute` must be bit-identical
//!    to the naive scalar [`BlockFpGemm::reference`] for every multiplier
//!    configuration, mantissa width in `5..=25`, tile geometry and shape
//!    — including `m == 1`, `k == 1`, zero dims and
//!    non-multiple-of-tile edges. With matrix-spanning tiles and a
//!    single row, the engine must also match the whole-matrix
//!    (single-block) mode bit for bit.
//!    The same walk forced onto C row chunks of every size (the
//!    single-core equivalent of sweeping `RAYON_NUM_THREADS`) is pinned
//!    by the engine's unit tests in `src/gemm.rs`, which reach the
//!    private walk directly.
//! 2. **Proven error bounds** — the engine's output is pinned inside an
//!    analytically derived envelope around the exact `f64` product:
//!    per-operand quantization steps plus the OR-approximation's
//!    worst-case per-product loss, both computed from first principles
//!    in the test.
//!
//! Plus the headline accuracy claim: per-tile exponents beat the
//! paper's whole-matrix quantization on wide-dynamic-range operands.

use daism_core::{
    gemm_reference, BlockFpGemm, ExactMul, GemmBackend, MultiplierConfig, MultiplierKind,
};
use daism_num::BlockFp;
use proptest::prelude::*;

/// Sparsify: push small magnitudes to exact zero so the zero-bypass
/// path is exercised on almost every case.
fn sparsify(v: Vec<f32>) -> Vec<f32> {
    v.into_iter().map(|x| if x.abs() < 1.5 { 0.0 } else { x }).collect()
}

fn assert_engine_matches_reference(
    engine: &BlockFpGemm,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TestCaseError> {
    let mut reference = vec![0.0f32; m * n];
    engine.reference(a, b, &mut reference, m, k, n);
    let mut tiled = vec![0.0f32; m * n];
    engine.execute(a, b, &mut tiled, m, k, n);
    for (i, (r, t)) in reference.iter().zip(&tiled).enumerate() {
        prop_assert_eq!(
            r.to_bits(),
            t.to_bits(),
            "{} {}x{}x{} tiles ({}, {}) element {}: reference {} vs engine {}",
            engine.name(),
            m,
            k,
            n,
            engine.tile_k(),
            engine.tile_n(),
            i,
            r,
            t
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn engine_bit_identical_to_reference_everywhere(
        case in (0usize..6, 0usize..10, 0usize..7).prop_flat_map(|(m, k, n)| {
            (
                Just((m, k, n)),
                prop::collection::vec(-1e3f32..1e3, m * k),
                prop::collection::vec(-1e3f32..1e3, k * n),
            )
        }),
        width in 5u32..=25,
        tile_k in 1usize..5,
        tile_n in 1usize..5,
        // Stretch the operand range: plain, near-subnormal and huge
        // magnitudes all have to agree bit for bit.
        a_scale in prop::sample::select(vec![1.0f32, 1e-30, 1e15]),
    ) {
        let ((m, k, n), a, b) = case;
        let a: Vec<f32> = sparsify(a).into_iter().map(|v| v * a_scale).collect();
        let b = sparsify(b);
        for config in MultiplierConfig::ALL {
            let engine = BlockFpGemm::with_tiles(config, width, tile_k, tile_n);
            assert_engine_matches_reference(&engine, &a, &b, m, k, n)?;
        }
    }

    #[test]
    fn single_row_spanning_tiles_match_whole_matrix_mode(
        case in (1usize..12, 1usize..9).prop_flat_map(|(k, n)| {
            (
                Just((k, n)),
                prop::collection::vec(-64.0f32..64.0, k),
                prop::collection::vec(-64.0f32..64.0, k * n),
            )
        }),
        width in 5u32..=25,
    ) {
        // m == 1 with tiles spanning the whole problem: per-(row, k-tile)
        // quantization degenerates to whole-matrix quantization, so the
        // tiled engine and the paper's single-block mode must coincide
        // exactly.
        let ((k, n), a, b) = case;
        let (a, b) = (sparsify(a), sparsify(b));
        for config in MultiplierConfig::ALL {
            let engine = BlockFpGemm::with_tiles(config, width, k, n);
            let mut tiled = vec![0.0f32; n];
            let mut whole = vec![0.0f32; n];
            engine.execute(&a, &b, &mut tiled, 1, k, n);
            engine.execute_whole_matrix(&a, &b, &mut whole, 1, k, n);
            for (i, (t, w)) in tiled.iter().zip(&whole).enumerate() {
                prop_assert_eq!(
                    t.to_bits(), w.to_bits(),
                    "{} 1x{}x{} element {}: tiled {} vs whole-matrix {}",
                    engine.name(), k, n, i, t, w
                );
            }
        }
    }

    #[test]
    fn engine_stays_inside_proven_error_envelope(
        case in (1usize..4, 1usize..7, 1usize..5).prop_flat_map(|(m, k, n)| {
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
            )
        }),
        width in prop::sample::select(vec![5u32, 9, 12, 16]),
        tile_k in 1usize..4,
        tile_n in 1usize..4,
    ) {
        let ((m, k, n), a, b) = case;
        for config in MultiplierConfig::ALL {
            let engine = BlockFpGemm::with_tiles(config, width, tile_k, tile_n);
            let mut out = vec![0.0f32; m * n];
            engine.execute(&a, &b, &mut out, m, k, n);
            let env = Envelope::derive(&engine, &a, &b, m, k, n);
            for (i, &got) in out.iter().enumerate() {
                // (1) OR-approximation loss: |engine - quantized-exact|
                // bounded by the per-product worst cases.
                let or_err = (got as f64 - env.quantized_exact[i]).abs();
                prop_assert!(
                    or_err <= env.or_loss_bound[i] + env.fold_slack[i],
                    "{} {}x{}x{} element {}: engine {} vs quantized-exact {} \
                     exceeds OR-loss bound {}",
                    engine.name(), m, k, n, i, got, env.quantized_exact[i],
                    env.or_loss_bound[i]
                );
                // (2) End-to-end: engine within quantization + OR loss of
                // the exact f64 product.
                let total_err = (got as f64 - env.exact[i]).abs();
                let total_bound =
                    env.or_loss_bound[i] + env.quant_bound[i] + env.fold_slack[i];
                prop_assert!(
                    total_err <= total_bound,
                    "{} {}x{}x{} element {}: engine {} vs exact {} \
                     exceeds total bound {}",
                    engine.name(), m, k, n, i, got, env.exact[i], total_bound
                );
            }
        }
    }

    #[test]
    fn single_products_never_overestimate_magnitude(
        a0 in 0.05f32..100.0,
        b0 in 0.05f32..100.0,
        neg in any::<bool>(),
        width in prop::sample::select(vec![6u32, 9, 12, 20]),
    ) {
        // k == 1: one product per output. OR-approximation only loses
        // magnitude, and each quantized operand is within its (here,
        // single-element) block step — so the result's magnitude cannot
        // exceed the product of the stepped-up operands.
        let a = [if neg { -a0 } else { a0 }];
        let b = [b0];
        let step = |v: f32| {
            let block = BlockFp::quantize(&[v], width);
            block.scale()
        };
        let ceiling = (a0 as f64 + step(a[0])) * (b0 as f64 + step(b0)) * 1.0000001;
        for config in MultiplierConfig::ALL {
            let engine = BlockFpGemm::with_tiles(config, width, 1, 1);
            let mut c = [0.0f32];
            engine.execute(&a, &b, &mut c, 1, 1, 1);
            prop_assert!(
                (c[0].abs() as f64) <= ceiling,
                "{}: |{}·{}| -> {} exceeds ceiling {}",
                engine.name(), a[0], b0, c[0], ceiling
            );
            prop_assert!(
                c[0] == 0.0 || (c[0] < 0.0) == neg,
                "{}: sign of {} wrong for {}·{}", engine.name(), c[0], a[0], b0
            );
        }
    }
}

/// The analytically derived error envelope for one GEMM: computed from
/// first principles on the same block structure the engine uses.
struct Envelope {
    /// Exact `f64` product of the *original* values.
    exact: Vec<f64>,
    /// Exact `f64` product of the *quantized* values (same mantissas and
    /// scales as the engine, but exact integer products).
    quantized_exact: Vec<f64>,
    /// Per-element bound on the OR-approximation's total magnitude loss:
    /// `Σ_products loss(p)` where `loss ≤ p/2 + 2^(w-1)·[truncate]` for
    /// configurations that keep the largest partial product, and
    /// `loss ≤ p` for the PC2 integer mode's sacrificed-LSB case
    /// (multiplier == 1), whose read-out may be zero.
    or_loss_bound: Vec<f64>,
    /// Per-element bound on the quantization error:
    /// `Σ_l |a|·Δb + |b|·Δa + Δa·Δb` with Δ one full block step
    /// (covering the symmetric-clamp extreme).
    quant_bound: Vec<f64>,
    /// Slack for the engine's per-tile `f32` folds and the `f64`
    /// summation of the anchors.
    fold_slack: Vec<f64>,
}

impl Envelope {
    fn derive(engine: &BlockFpGemm, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Self {
        let w = engine.man_width();
        let (tile_k, tile_n) = (engine.tile_k(), engine.tile_n());
        let nkb = k.div_ceil(tile_k);
        let a_blocks = BlockFp::quantize_rows(a, k, tile_k, w);
        // B tiles, gathered exactly as the engine gathers them.
        let njb = n.div_ceil(tile_n);
        let mut b_tiles = Vec::with_capacity(nkb * njb);
        for l0 in (0..k).step_by(tile_k) {
            let l1 = (l0 + tile_k).min(k);
            for j0 in (0..n).step_by(tile_n) {
                let j1 = (j0 + tile_n).min(n);
                let mut buf = Vec::with_capacity((l1 - l0) * (j1 - j0));
                for l in l0..l1 {
                    buf.extend_from_slice(&b[l * n + j0..l * n + j1]);
                }
                b_tiles.push(BlockFp::quantize(&buf, w));
            }
        }
        let pc2_int = engine.config().kind == MultiplierKind::Pc2;
        let trunc_extra = if engine.config().truncate { 2f64.powi(w as i32 - 1) } else { 0.0 };

        let mut exact = vec![0.0f64; m * n];
        let mut quantized_exact = vec![0.0f64; m * n];
        let mut or_loss_bound = vec![0.0f64; m * n];
        let mut quant_bound = vec![0.0f64; m * n];
        let mut fold_slack = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let jb = j / tile_n;
                let dj = j - jb * tile_n;
                let tw = tile_n.min(n - jb * tile_n);
                for lb in 0..nkb {
                    let ablock = &a_blocks[i * nkb + lb];
                    let btile = &b_tiles[lb * njb + jb];
                    let scale = ablock.scale() * btile.scale();
                    let (da, db) = (ablock.scale(), btile.scale());
                    for (dl, &xm) in ablock.mantissas().iter().enumerate() {
                        let l = lb * tile_k + dl;
                        let (av, bv) = (a[i * k + l] as f64, b[l * n + j] as f64);
                        exact[i * n + j] += av * bv;
                        quant_bound[i * n + j] += av.abs() * db + bv.abs() * da + da * db;
                        let ym = btile.mantissas()[dl * tw + dj];
                        if xm == 0 || ym == 0 {
                            continue; // zero bypass: no product, no OR loss
                        }
                        let p = (xm.unsigned_abs() as u64 * ym.unsigned_abs() as u64) as f64;
                        let signed = if (xm < 0) ^ (ym < 0) { -p } else { p };
                        quantized_exact[i * n + j] += signed * scale;
                        let loss = if pc2_int && ym.unsigned_abs() == 1 {
                            // PC2 integer mode stores A+B in place of the
                            // LSB partial product: a multiplier of exactly
                            // 1 can read out zero.
                            p
                        } else {
                            p / 2.0 + trunc_extra
                        };
                        or_loss_bound[i * n + j] += loss * scale;
                        // f32 fold + f64 summation slack, proportional to
                        // accumulated magnitude.
                        fold_slack[i * n + j] += p * scale * 1e-5 + 1e-30;
                    }
                }
            }
        }
        Envelope { exact, quantized_exact, or_loss_bound, quant_bound, fold_slack }
    }
}

#[test]
fn unit_and_zero_dims_exhaustive() {
    // Every combination of {0, 1, 2} per dimension, all configurations,
    // narrow and wide mantissas.
    for m in [0usize, 1, 2] {
        for k in [0usize, 1, 2] {
            for n in [0usize, 1, 2] {
                let a: Vec<f32> = (0..m * k).map(|i| i as f32 - 1.0).collect();
                let b: Vec<f32> = (0..k * n).map(|i| 0.5 * i as f32 - 0.5).collect();
                for config in MultiplierConfig::ALL {
                    for width in [5u32, 12] {
                        let engine = BlockFpGemm::with_tiles(config, width, 2, 2);
                        let mut reference = vec![0.0f32; m * n];
                        let mut tiled = vec![0.0f32; m * n];
                        engine.reference(&a, &b, &mut reference, m, k, n);
                        engine.execute(&a, &b, &mut tiled, m, k, n);
                        assert_eq!(reference, tiled, "{} {m}x{k}x{n}", engine.name());
                    }
                }
            }
        }
    }
}

/// The headline accuracy claim (ROADMAP item (b), acceptance criterion):
/// per-tile shared exponents beat the paper's whole-matrix quantization
/// on wide-dynamic-range operands. Each 16-deep k-segment carries a
/// magnitude band (1e3 down to 1e-3) arranged so every band contributes
/// equally to the exact product; whole-matrix quantization flushes the
/// small bands to zero, the per-tile engine keeps them.
#[test]
fn per_tile_beats_whole_matrix_on_wide_dynamic_range() {
    let (m, k, n) = (4usize, 64usize, 4usize);
    let band = |l: usize| 10f32.powi(3 - 2 * (l / 16) as i32); // 1e3, 1e1, 1e-1, 1e-3
    let a: Vec<f32> = (0..m * k)
        .map(|idx| {
            let (i, l) = (idx / k, idx % k);
            let wiggle = 0.6 + ((i * 31 + l * 7) % 13) as f32 / 16.0;
            let sign = if (i + l) % 3 == 0 { -1.0 } else { 1.0 };
            sign * band(l) * wiggle
        })
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|idx| {
            let (l, j) = (idx / n, idx % n);
            let wiggle = 0.6 + ((l * 11 + j * 5) % 17) as f32 / 20.0;
            let sign = if (l + 2 * j) % 4 == 0 { -1.0 } else { 1.0 };
            sign * wiggle / band(l) // inverse band: every segment matters
        })
        .collect();
    let mut exact = vec![0.0f32; m * n];
    gemm_reference(&ExactMul, &a, &b, &mut exact, m, k, n);

    let engine = BlockFpGemm::with_tiles(MultiplierConfig::PC3, 12, 16, 4);
    let mut tiled = vec![0.0f32; m * n];
    engine.execute(&a, &b, &mut tiled, m, k, n);
    let mut whole = vec![0.0f32; m * n];
    engine.execute_whole_matrix(&a, &b, &mut whole, m, k, n);

    let err = |c: &[f32]| -> f64 {
        exact.iter().zip(c).map(|(e, v)| (*e as f64 - *v as f64).abs()).sum()
    };
    let (err_tiled, err_whole) = (err(&tiled), err(&whole));
    assert!(
        err_tiled < 0.5 * err_whole,
        "per-tile error {err_tiled} not clearly better than whole-matrix {err_whole}"
    );
    // And the per-tile output is genuinely accurate, not just less bad:
    // every element within 25% of the exact value (PC3's OR loss plus
    // 12-bit quantization is far inside that).
    for (e, t) in exact.iter().zip(&tiled) {
        assert!(
            (e - t).abs() <= 0.25 * e.abs() + 1e-3,
            "per-tile element {t} too far from exact {e}"
        );
    }
}

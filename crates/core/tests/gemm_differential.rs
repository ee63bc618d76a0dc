//! Differential property suite: the tiled, decoded-tile, parallel GEMM
//! engine — eager [`gemm`] and the prepared-B serving path alike — must
//! be **bit-identical** to the scalar reference for every backend, every
//! multiplier configuration, every mantissa width and every shape —
//! including degenerate ones.
//!
//! This is the contract that makes the engine a pure speed refactor: any
//! divergence in accumulation order, zero-bypass handling, backend
//! batching or tile pre-decode shows up here as a failing bit
//! comparison.

use daism_core::{
    gemm, gemm_f32_microkernel_portable, gemm_reference, ApproxFpMul, ExactMul, GemmBackend,
    MantissaMultiplier, MultiplierConfig, OperandMode, QuantizedExactMul, ScalarMul,
};
use daism_num::FpFormat;
use proptest::prelude::*;

/// All backends under test: exact, quantized-exact, and the approximate
/// pipeline over FLA/PC2/PC3 × truncation × every mantissa width the
/// predefined formats span (8-bit bf16 through 24-bit fp32, including
/// the no-LUT wide-mantissa path).
fn backends() -> Vec<Box<dyn ScalarMul>> {
    let mut v: Vec<Box<dyn ScalarMul>> = vec![
        Box::new(ExactMul),
        Box::new(QuantizedExactMul::new(FpFormat::BF16)),
        Box::new(QuantizedExactMul::new(FpFormat::FP32)),
    ];
    for config in MultiplierConfig::ALL {
        v.push(Box::new(ApproxFpMul::new(config, FpFormat::BF16)));
    }
    // Wider-mantissa representatives: fp16 (11 bits, no LUT), tf32
    // (11 bits), fp32 (24 bits) — the prepared-pattern OR path.
    v.push(Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16)));
    v.push(Box::new(ApproxFpMul::new(MultiplierConfig::PC2, FpFormat::TF32)));
    v.push(Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP32)));
    v
}

fn assert_all_backends_bit_identical(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TestCaseError> {
    assert_all_backends_bit_identical_into(a, b, &vec![0.0f32; m * n], m, k, n)
}

/// [`assert_all_backends_bit_identical`] with C pre-filled with `c0`.
/// Bits are compared exactly, except that any NaN matches any NaN: Rust
/// does not pin the payload or sign of a NaN that float arithmetic
/// returns (native `f32` kernels may add either operand first).
fn assert_all_backends_bit_identical_into(
    a: &[f32],
    b: &[f32],
    c0: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TestCaseError> {
    let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    for mul in backends() {
        let mut reference = c0.to_vec();
        let mut engine = c0.to_vec();
        gemm_reference(mul.as_ref(), a, b, &mut reference, m, k, n);
        gemm(mul.as_ref(), a, b, &mut engine, m, k, n);
        // The compiled-session path: B prepared once, served through
        // `gemm_prepared_b` — it must stay on the reference's bits, for
        // every backend class and every shape including m == 1.
        let prepared_b = mul.prepare_b(b, k, n);
        let mut served = c0.to_vec();
        mul.gemm_prepared_b(a, &prepared_b, &mut served, m);
        for (i, ((&r, &t), &s)) in reference.iter().zip(&engine).zip(&served).enumerate() {
            prop_assert!(
                same(r, t),
                "{} {}x{}x{} element {}: reference {} ({:#010x}) vs engine {} ({:#010x})",
                mul.name(),
                m,
                k,
                n,
                i,
                r,
                r.to_bits(),
                t,
                t.to_bits()
            );
            prop_assert!(
                same(r, s),
                "{} {}x{}x{} element {}: reference {} ({:#010x}) vs prepared-B {} ({:#010x})",
                mul.name(),
                m,
                k,
                n,
                i,
                r,
                r.to_bits(),
                s,
                s.to_bits()
            );
        }
    }
    Ok(())
}

/// Values the exact side logic handles: NaN, ±Inf, `f32` subnormals
/// (flush to zero in every format), values that flush to zero in fp16
/// or saturate to infinity there, and `-0.0`.
const EXOTIC: [f32; 10] =
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -3e-39, 1e-6, -2e-7, 1e5, -7e4, -0.0];

/// The B zero fractions the zero-heavy property draws from: dense,
/// conv-forward-like, and the mostly-zero backward gradients, up to
/// all zeros.
const ZERO_FRACTIONS: [f64; 5] = [0.0, 0.3, 0.8, 0.95, 1.0];

/// A seeded operand: each element zero (`±0.0`) with probability
/// `zero`, else exotic with probability `exotic`, else a normal value
/// in `±[0.05, 8)`.
fn zero_heavy_operand(len: usize, zero: f64, exotic: f64, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..len)
        .map(|_| {
            let (gate, pick) = (next(), next());
            if gate < zero {
                if pick < 0.5 {
                    0.0
                } else {
                    -0.0
                }
            } else if gate < zero + (1.0 - zero) * exotic {
                EXOTIC[(pick * EXOTIC.len() as f64) as usize % EXOTIC.len()]
            } else {
                let v = (0.05 + 7.95 * pick) as f32;
                if gate * 1024.0 % 2.0 < 1.0 {
                    v
                } else {
                    -v
                }
            }
        })
        .collect()
}

/// Zero-heavy, exotic-laced operands and a C pre-fill that includes
/// `-0.0` (so a flushed lane's signed-zero product is visible).
fn zero_heavy_case(
    m: usize,
    k: usize,
    n: usize,
    zero_b: f64,
    seed: u64,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let a = zero_heavy_operand(m * k, 0.2, 0.05, seed);
    let b = zero_heavy_operand(k * n, zero_b, 0.1, seed ^ 0xB);
    let c0 = zero_heavy_operand(m * n, 0.5, 0.0, seed ^ 0xC)
        .into_iter()
        .enumerate()
        .map(|(i, v)| if i % 3 == 0 { -0.0 } else { v })
        .collect();
    (a, b, c0)
}

/// Sparsify: push small magnitudes to exact zero so the zero-bypass path
/// is exercised on almost every case.
fn sparsify(v: Vec<f32>) -> Vec<f32> {
    v.into_iter().map(|x| if x.abs() < 1.5 { 0.0 } else { x }).collect()
}

proptest! {
    #[test]
    fn tiled_equals_reference_on_odd_small_shapes(
        case in (0usize..8, 0usize..8, 0usize..8).prop_flat_map(|(m, k, n)| {
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
            )
        }),
    ) {
        let ((m, k, n), a, b) = case;
        let (a, b) = (sparsify(a), sparsify(b));
        assert_all_backends_bit_identical(&a, &b, m, k, n)?;
    }

    #[test]
    fn zero_heavy_and_exotic_lanes_match_reference(
        case in (1usize..6, 1usize..12, 8usize..=40, 0usize..5, 0u64..u64::MAX),
    ) {
        // n ≥ 8: every row holds full lane groups plus a tail, with zero,
        // flushed, saturating and NaN/Inf lanes landing anywhere in them.
        let (m, k, n, zi, seed) = case;
        let (a, b, c0) = zero_heavy_case(m, k, n, ZERO_FRACTIONS[zi], seed);
        assert_all_backends_bit_identical_into(&a, &b, &c0, m, k, n)?;
    }

    #[test]
    fn tiled_equals_reference_above_parallel_threshold(
        case in (33usize..44, 24usize..32, 96usize..128).prop_flat_map(|(m, k, n)| {
            // m > MC and m·k·n ≥ 76k MACs: the row panels genuinely split
            // and (on a multi-core host) run on worker threads.
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
            )
        }),
    ) {
        let ((m, k, n), a, b) = case;
        let (a, b) = (sparsify(a), sparsify(b));
        // Restrict to the three cheapest backends at this size to keep
        // the suite fast; the small-shape property covers the full grid.
        for mul in [
            Box::new(ExactMul) as Box<dyn ScalarMul>,
            Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::BF16)),
        ] {
            let mut reference = vec![0.0f32; m * n];
            let mut engine = vec![0.0f32; m * n];
            gemm_reference(mul.as_ref(), &a, &b, &mut reference, m, k, n);
            gemm(mul.as_ref(), &a, &b, &mut engine, m, k, n);
            for (r, t) in reference.iter().zip(&engine) {
                prop_assert_eq!(r.to_bits(), t.to_bits(), "{} diverged at {}x{}x{}",
                    mul.name(), m, k, n);
            }
        }
    }

    #[test]
    fn accumulation_into_nonzero_c_is_preserved(
        seed in 0u64..1000,
    ) {
        // C arrives non-zero (bias pre-fill, residual accumulation): the
        // engine must add to it exactly as the reference does.
        let (m, k, n) = (5usize, 9usize, 6usize);
        let hash = |i: usize, salt: u64| -> f32 {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed ^ salt);
            ((h % 997) as f32 - 498.0) / 100.0
        };
        let a: Vec<f32> = (0..m * k).map(|i| hash(i, 1)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| hash(i, 2)).collect();
        let c0: Vec<f32> = (0..m * n).map(|i| hash(i, 3)).collect();
        for mul in backends() {
            let mut reference = c0.clone();
            let mut tiled = c0.clone();
            gemm_reference(mul.as_ref(), &a, &b, &mut reference, m, k, n);
            gemm(mul.as_ref(), &a, &b, &mut tiled, m, k, n);
            for (r, t) in reference.iter().zip(&tiled) {
                prop_assert_eq!(r.to_bits(), t.to_bits(), "{}", mul.name());
            }
        }
    }
}

/// Applies `f` to `ys` through `mul_lanes` groups of `L`, scalar
/// `multiply` on the remainder, asserting lane == scalar per element.
fn assert_lanes_match_scalar<const L: usize>(
    m: &MantissaMultiplier,
    a: u64,
    ys: &[u64],
) -> Result<(), TestCaseError> {
    let prep = m.prepare(a);
    let mut it = ys.chunks_exact(L);
    for chunk in &mut it {
        let lanes: [u64; L] = chunk.try_into().expect("chunk length");
        let raws = m.mul_lanes(&prep, &lanes);
        for (j, &b) in chunk.iter().enumerate() {
            prop_assert_eq!(
                raws[j],
                m.multiply(a, b),
                "{} n={} L={}: a={:#x} b={:#x}",
                m.config(),
                m.mantissa_width(),
                L,
                a,
                b
            );
        }
    }
    for &b in it.remainder() {
        prop_assert_eq!(m.multiply_prepared(&prep, b), m.multiply(a, b));
    }
    Ok(())
}

proptest! {
    /// `mul_lanes` == N× scalar `multiply` across all five multiplier
    /// configurations, every BlockFp-reachable multiplier width
    /// (`man_width 5..=25` ⇒ `n = 4..=24`, spanning LUT and
    /// prepared-pattern-OR service), both operand modes, and several
    /// lane counts — the contract the lane-packed GEMM kernels ride.
    #[test]
    fn mul_lanes_matches_scalar_multiply(
        config_idx in 0usize..5,
        man_width in 5u32..=25,
        seed in 0u64..10_000,
    ) {
        let config = MultiplierConfig::ALL[config_idx];
        let n = man_width - 1;
        let top = 1u64 << (n - 1);
        let hash = |i: u64| -> u64 {
            (i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed) >> 17) & ((1 << n) - 1)
        };
        for mode in [OperandMode::Int, OperandMode::Fp] {
            let m = MantissaMultiplier::new(config, mode, n);
            let ys: Vec<u64> = (0..19u64)
                .map(|i| {
                    let v = hash(i);
                    match mode {
                        // fp-mode multipliers carry their leading one
                        // (or are zero — the bypass lane).
                        OperandMode::Fp => if i % 7 == 0 { 0 } else { v | top },
                        OperandMode::Int => if i % 7 == 0 { 0 } else { v },
                    }
                })
                .collect();
            for a in [top, top | 1, hash(97) | top, (1 << n) - 1, 0] {
                assert_lanes_match_scalar::<1>(&m, a, &ys)?;
                assert_lanes_match_scalar::<3>(&m, a, &ys)?;
                assert_lanes_match_scalar::<8>(&m, a, &ys)?;
                assert_lanes_match_scalar::<16>(&m, a, &ys)?;
            }
        }
    }

    /// The runtime-detected f32 microkernel path and the forced-portable
    /// fallback must be **byte-identical** to each other and to the
    /// scalar reference, across register-tile remainders (m, n, k not
    /// multiples of MR/NR/KC), m == 1 and arbitrary fills. The detected
    /// kernel is driven through prepared-B serving, which packs for
    /// native-`f32` backends at every `m`. On a host without AVX2 (or a
    /// no-`simd` build) both run the portable kernel and the property
    /// still pins kernel-vs-reference.
    #[test]
    fn microkernel_detected_equals_portable_equals_reference(
        case in (1usize..19, 1usize..40, 1usize..37).prop_flat_map(|(m, k, n)| {
            (
                Just((m, k, n)),
                prop::collection::vec(-8.0f32..8.0, m * k),
                prop::collection::vec(-8.0f32..8.0, k * n),
                prop::collection::vec(-4.0f32..4.0, m * n),
            )
        }),
    ) {
        let ((m, k, n), a, b, c0) = case;
        let (a, b) = (sparsify(a), sparsify(b));
        let mut reference = c0.clone();
        let mut detected = c0.clone();
        let mut portable = c0;
        gemm_reference(&ExactMul, &a, &b, &mut reference, m, k, n);
        let packed = ExactMul.prepare_b(&b, k, n);
        ExactMul.gemm_prepared_b(&a, &packed, &mut detected, m);
        gemm_f32_microkernel_portable(&a, &b, &mut portable, m, k, n);
        for (i, r) in reference.iter().enumerate() {
            prop_assert_eq!(r.to_bits(), detected[i].to_bits(),
                "detected diverged at {}x{}x{} elem {}", m, k, n, i);
            prop_assert_eq!(r.to_bits(), portable[i].to_bits(),
                "portable diverged at {}x{}x{} elem {}", m, k, n, i);
        }
    }
}

#[test]
fn zero_heavy_and_exotic_lanes_match_reference_above_parallel_gate() {
    // 37×24×40 = 35k MACs clears the engine's thread gate: C rows split
    // into chunks and eager tiles decode across the pool.
    let (m, k, n) = (37usize, 24usize, 40usize);
    for (zi, &zero_b) in ZERO_FRACTIONS.iter().enumerate() {
        let (a, b, c0) = zero_heavy_case(m, k, n, zero_b, 0x5EED + zi as u64);
        if let Err(e) = assert_all_backends_bit_identical_into(&a, &b, &c0, m, k, n) {
            panic!("B zero fraction {zero_b}: {e:?}");
        }
    }
}

#[test]
fn unit_dims_zero_dims_exhaustive() {
    // Every combination of {0, 1, 2} per dimension, all backends.
    for m in [0usize, 1, 2] {
        for k in [0usize, 1, 2] {
            for n in [0usize, 1, 2] {
                let a: Vec<f32> = (0..m * k).map(|i| i as f32 - 1.0).collect();
                let b: Vec<f32> = (0..k * n).map(|i| 0.5 * i as f32 - 0.5).collect();
                for mul in backends() {
                    let mut reference = vec![0.0f32; m * n];
                    let mut tiled = vec![0.0f32; m * n];
                    gemm_reference(mul.as_ref(), &a, &b, &mut reference, m, k, n);
                    gemm(mul.as_ref(), &a, &b, &mut tiled, m, k, n);
                    assert_eq!(reference, tiled, "{} {m}x{k}x{n}", mul.name());
                }
            }
        }
    }
}

#[test]
fn mantissa_lut_equals_bitwise_for_every_fp_operand_pair() {
    // LUT-vs-bitwise equivalence at the mantissa level, exhaustive over
    // the bf16 fp-operand space for all five Table I configurations.
    use daism_core::{MantissaMultiplier, OperandMode};
    for config in MultiplierConfig::ALL {
        let m = MantissaMultiplier::new(config, OperandMode::Fp, 8);
        for a in 0x80u64..=0xFF {
            for b in 0x80u64..=0xFF {
                assert_eq!(
                    m.multiply(a, b),
                    m.multiply_bitwise(a, b),
                    "{config}: a={a:#x} b={b:#x}"
                );
            }
        }
    }
}

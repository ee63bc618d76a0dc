//! Property-based tests for the multiplier invariants: OR-approximate
//! products bounded by the exact product and the largest partial
//! product, truncation and PC3 exactness rules, SRAM-backed ==
//! software, and the floating-point pipeline's error envelope.

use daism_core::ApproxFpMul;
use daism_core::{
    exact_mul, MantissaMultiplier, MultiplierConfig, OperandMode, ScalarMul, SramMultiplier,
};
use daism_num::{FpFormat, FpScalar};
use daism_sram::BankGeometry;
use proptest::prelude::*;

fn fp_mantissa(n: u32) -> impl Strategy<Value = u64> {
    let top = 1u64 << (n - 1);
    (0..top).prop_map(move |low| top | low)
}

fn any_config() -> impl Strategy<Value = MultiplierConfig> {
    prop::sample::select(MultiplierConfig::ALL.to_vec())
}

proptest! {
    #[test]
    fn approx_bounded_by_exact_and_largest_pp(
        config in any_config(),
        a in fp_mantissa(8),
        b in fp_mantissa(8),
    ) {
        let m = MantissaMultiplier::new(config, OperandMode::Fp, 8);
        let approx = m.to_product_scale(m.multiply(a, b));
        let exact = exact_mul(a, b);
        prop_assert!(approx <= exact, "{config}: approx {approx:#x} > exact {exact:#x}");
        // The A-line's (possibly truncated) contribution is a floor.
        let n = 8u32;
        let a_line = if config.truncate { ((a << (n - 1)) >> n) << n } else { a << (n - 1) };
        prop_assert!(approx >= a_line);
    }

    #[test]
    fn approx_bounded_fp32(
        config in any_config(),
        a in fp_mantissa(24),
        b in fp_mantissa(24),
    ) {
        let m = MantissaMultiplier::new(config, OperandMode::Fp, 24);
        let approx = m.to_product_scale(m.multiply(a, b));
        prop_assert!(approx <= exact_mul(a, b));
    }

    #[test]
    fn single_pp_is_exact_at_retained_precision(
        config in any_config(),
        a in fp_mantissa(8),
    ) {
        // Only the implicit-one bit set: one active line, no collision.
        let m = MantissaMultiplier::new(config, OperandMode::Fp, 8);
        let b = 0x80u64;
        prop_assert_eq!(m.multiply(a, b), m.exact_reference(a, b));
    }

    #[test]
    fn pc3_exact_on_top_three_bits(
        a in fp_mantissa(8),
        b2 in any::<bool>(),
        b3 in any::<bool>(),
    ) {
        let b = 0x80u64 | (u64::from(b2) << 6) | (u64::from(b3) << 5);
        let m = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        prop_assert_eq!(m.multiply(a, b), exact_mul(a, b));
    }

    #[test]
    fn truncated_equals_full_with_per_line_truncation(
        config in prop::sample::select(vec![MultiplierConfig::PC2_TR, MultiplierConfig::PC3_TR]),
        a in fp_mantissa(8),
        b in fp_mantissa(8),
    ) {
        // The truncated result is the OR of per-line truncated patterns,
        // never the truncation of the full OR (which could differ when a
        // pre-sum carries into the kept columns).
        let m = MantissaMultiplier::new(config, OperandMode::Fp, 8);
        let layout = m.layout();
        let mask = layout.decode(b);
        let mut expect = 0u64;
        for i in 0..layout.len() {
            if (mask >> i) & 1 == 1 {
                expect |= layout.stored_pattern(i, a);
            }
        }
        prop_assert_eq!(m.multiply(a, b), expect);
    }

    #[test]
    fn presum_dominates_or_of_parts_in_isolation(
        a in fp_mantissa(8),
        b2 in any::<bool>(),
        b3 in any::<bool>(),
    ) {
        // Pointwise dominance PC3 >= PC2 >= FLA does NOT hold in general
        // (an exact sum's bit pattern can union worse with the low PPs —
        // proptest found a = 0x83, b = 0xCC), but it DOES hold when only
        // the repaired top bits are set, where the pre-sum value `x + y`
        // numerically dominates `x | y` with nothing else in the OR.
        let b = 0x80u64 | (u64::from(b2) << 6) | (u64::from(b3) << 5);
        let fla = MantissaMultiplier::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        let pc2 = MantissaMultiplier::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        let pc3 = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        let f = fla.multiply(a, b);
        let p3 = pc3.multiply(a, b);
        prop_assert!(p3 >= f, "PC3 {p3:#x} < FLA {f:#x} for {a:#x}*{b:#x}");
        prop_assert_eq!(p3, exact_mul(a, b)); // top-3-bit inputs: exact
        if !b3 {
            // Only A/B involved: PC2 also repairs fully.
            let p2 = pc2.multiply(a, b);
            prop_assert!(p2 >= f);
            prop_assert_eq!(p2, exact_mul(a, b));
        }
    }

    #[test]
    fn sram_backed_matches_software(
        config in any_config(),
        a in fp_mantissa(8),
        b in fp_mantissa(8),
    ) {
        let sw = MantissaMultiplier::new(config, OperandMode::Fp, 8);
        let geom = BankGeometry::square_from_bytes(2 * 1024).unwrap();
        let mut hw = SramMultiplier::new(config, OperandMode::Fp, 8, geom).unwrap();
        hw.program(0, 0, a).unwrap();
        let products = hw.multiply_group(0, b).unwrap();
        prop_assert_eq!(products[0], sw.multiply(a, b));
    }

    #[test]
    fn fp_pipeline_never_overestimates_magnitude(
        config in any_config(),
        x in -1e4f32..1e4,
        y in -1e4f32..1e4,
    ) {
        prop_assume!(x.is_normal() && y.is_normal());
        let m = ApproxFpMul::new(config, FpFormat::BF16);
        let approx = m.mul(x, y) as f64;
        let xq = FpScalar::from_f32(x, FpFormat::BF16).to_f64();
        let yq = FpScalar::from_f32(y, FpFormat::BF16).to_f64();
        let exact = xq * yq;
        prop_assert!(approx.abs() <= exact.abs() * (1.0 + 1e-12),
            "{config}: |{approx}| > |{exact}|");
        // Sign always exact.
        if exact != 0.0 && approx != 0.0 {
            prop_assert_eq!(approx.is_sign_negative(), exact.is_sign_negative());
        }
    }

    #[test]
    fn fp_pipeline_relative_error_within_envelope(
        x in 1e-3f32..1e3,
        y in 1e-3f32..1e3,
    ) {
        let m = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let approx = m.mul(x, y) as f64;
        let xq = FpScalar::from_f32(x, FpFormat::BF16).to_f64();
        let yq = FpScalar::from_f32(y, FpFormat::BF16).to_f64();
        let exact = xq * yq;
        prop_assume!(exact > 0.0);
        let rel = (exact - approx) / exact;
        // Exhaustive worst case ~19.6% + one truncation ULP.
        prop_assert!(rel < 0.22, "rel {rel} for {x}*{y}");
    }

    #[test]
    fn int_mode_fla_handles_all_operands(
        a in 0u64..256,
        b in 0u64..256,
    ) {
        let m = MantissaMultiplier::new(MultiplierConfig::FLA, OperandMode::Int, 8);
        let approx = m.multiply(a, b);
        prop_assert!(approx <= a * b);
        if b.count_ones() <= 1 {
            prop_assert_eq!(approx, a * b);
        }
    }
}

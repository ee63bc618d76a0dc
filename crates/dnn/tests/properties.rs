//! Property-based tests for the GEMM backends and layers.

use daism_core::{gemm, ApproxFpMul, BlockFpGemm, ExactMul, MultiplierConfig};
use daism_dnn::{Dense, Layer, ReLU, Sequential, Tensor};
use daism_num::FpFormat;
use proptest::prelude::*;

fn mat(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-4.0f32..4.0, len..=len)
}

proptest! {
    #[test]
    fn approx_gemm_never_exceeds_exact_on_positive_data(
        a in prop::collection::vec(0.01f32..4.0, 12),
        b in prop::collection::vec(0.01f32..4.0, 12),
    ) {
        // All-positive operands: every partial product is positive, so
        // the OR under-approximation can only shrink each output.
        let approx_mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let mut approx = vec![0f32; 9];
        let mut exact = vec![0f32; 9];
        gemm(&approx_mul, &a, &b, &mut approx, 3, 4, 3);
        gemm(&ExactMul, &a, &b, &mut exact, 3, 4, 3);
        for (ap, ex) in approx.iter().zip(&exact) {
            prop_assert!(*ap <= ex * 1.0001, "{ap} > {ex}");
            prop_assert!(*ap >= ex * 0.5, "{ap} too far below {ex}");
        }
    }

    #[test]
    fn gemm_is_deterministic(
        a in mat(8),
        b in mat(8),
    ) {
        let mul = ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::BF16);
        let mut c1 = vec![0f32; 4];
        let mut c2 = vec![0f32; 4];
        gemm(&mul, &a, &b, &mut c1, 2, 4, 2);
        gemm(&mul, &a, &b, &mut c2, 2, 4, 2);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn blockfp_engine_bounded_error(
        a in mat(12),
        b in mat(12),
    ) {
        let mut exact = vec![0f32; 9];
        gemm(&ExactMul, &a, &b, &mut exact, 3, 4, 3);
        let mut bfp = vec![0f32; 9];
        BlockFpGemm::new(MultiplierConfig::PC3, 16).execute(&a, &b, &mut bfp, 3, 4, 3);
        let scale: f32 = a.iter().chain(&b).map(|v| v.abs()).fold(0.0, f32::max);
        let bound = 0.25 * scale * scale * 4.0 + 0.05; // k terms of bounded products
        for (e, c) in exact.iter().zip(&bfp) {
            prop_assert!((e - c).abs() <= bound, "{e} vs {c} (bound {bound})");
        }
    }

    #[test]
    fn dense_backward_shapes_and_finiteness(
        batch in 1usize..5,
        in_f in 1usize..6,
        out_f in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut layer = Dense::new(in_f, out_f, seed);
        let x = Tensor::randn(&[batch, in_f], 1.0, seed + 1);
        let y = layer.forward(&x, &ExactMul, true);
        prop_assert_eq!(y.shape(), &[batch, out_f]);
        let g = Tensor::from_vec(vec![1.0; batch * out_f], &[batch, out_f]);
        let gx = layer.backward(&g, &ExactMul);
        prop_assert_eq!(gx.shape(), &[batch, in_f]);
        prop_assert!(gx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_is_pure_given_weights(
        seed in 0u64..500,
    ) {
        let mut model = Sequential::new()
            .push(Dense::new(4, 6, seed))
            .push(ReLU::new())
            .push(Dense::new(6, 2, seed + 7));
        let x = Tensor::randn(&[3, 4], 1.0, seed + 13);
        let y1 = model.forward(&x, &ExactMul, false);
        let y2 = model.forward(&x, &ExactMul, false);
        prop_assert_eq!(y1, y2);
    }
}

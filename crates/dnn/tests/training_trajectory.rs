//! Training-trajectory pin: four SGD steps of `models::mini_vgg` on
//! three backends must land on exactly these parameter and loss bits.
//!
//! The constants were captured from the implementation in which each
//! layer still carried its own eager forward GEMM, before the forwards
//! were folded into the compiled layers. Any change to a forward, a
//! backward, the lowering or the update that moves a single bit of the
//! trajectory fails here.

use daism_core::{ApproxFpMul, BlockFpGemm, GemmBackend, MultiplierConfig};
use daism_dnn::{models, train, Layer, Tensor};
use daism_num::FpFormat;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, word: u32) {
    *h ^= u64::from(word);
    *h = h.wrapping_mul(PRIME);
}

/// FNV-1a over every step's loss bits and, after the last step, every
/// parameter's value bits.
fn trajectory_hash(backend: &dyn GemmBackend) -> u64 {
    let mut model = models::mini_vgg(8, 3);
    let mut h = OFFSET;
    for step in 0..4u64 {
        let x = Tensor::randn(&[8, 1, 8, 8], 1.0, 500 + step);
        let labels: Vec<usize> = (0..8).map(|n| (n + step as usize) % 3).collect();
        let logits = model.forward(&x, backend, true);
        let (loss, grad) = train::softmax_cross_entropy(&logits, &labels);
        model.backward(&grad, backend);
        train::sgd_step(&mut model, 0.05, 0.9, 1e-4);
        assert!(loss.is_finite(), "step {step}: loss {loss}");
        fnv(&mut h, loss.to_bits());
    }
    for p in model.params() {
        for &v in p.value.data() {
            fnv(&mut h, v.to_bits());
        }
    }
    h
}

#[test]
fn mini_vgg_trajectory_bf16_pc3_tr() {
    let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
    assert_eq!(trajectory_hash(&mul), 0x7587_d1f9_2790_c293);
}

#[test]
fn mini_vgg_trajectory_fp16_pc3_tr() {
    let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16);
    assert_eq!(trajectory_hash(&mul), 0x8210_5829_188a_16a9);
}

#[test]
fn mini_vgg_trajectory_blockfp_w9() {
    let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 9);
    assert_eq!(trajectory_hash(&engine), 0x6a3b_59ff_0276_e57e);
}

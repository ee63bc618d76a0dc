//! Cross-crate integration tests: the full pipeline from bit-level SRAM
//! reads up to DNN accuracy and architecture reports.

use daism::arch::{vgg8_layers, FunctionalDaism};
use daism::core::error_analysis;
use daism::dnn::{datasets, models, train};
use daism::{
    ApproxFpMul, BankGeometry, DaismConfig, DaismModel, ExactMul, FpFormat, FpScalar, GemmShape,
    MantissaMultiplier, MultiplierConfig, OperandMode, ScalarMul, SramMultiplier,
};

#[test]
fn sram_to_fp_pipeline_equals_software_pipeline() {
    // A multiplication through the physical model (program + decode +
    // wired-OR + recombine) must equal ApproxFpMul::mul bit for bit.
    let format = FpFormat::BF16;
    for config in MultiplierConfig::ALL {
        let sw = ApproxFpMul::new(config, format);
        let geom = BankGeometry::square_from_bytes(2 * 1024).unwrap();
        let mut hw = SramMultiplier::new(config, OperandMode::Fp, 8, geom).unwrap();
        let mut v = 0.173f32;
        for slot in 0..hw.slots() {
            let xs = FpScalar::from_f32(v, format);
            hw.program(0, slot, xs.mantissa()).unwrap();
            let w = -2.64f32;
            let ys = FpScalar::from_f32(w, format);
            let raw = hw.multiply(0, slot, ys.mantissa()).unwrap();
            let hw_product = sw.combine_raw(&xs, &ys, raw).to_f32();
            // Software path multiplies the quantized values.
            let sw_product = sw.mul(xs.to_f32(), w);
            assert_eq!(hw_product.to_bits(), sw_product.to_bits(), "{config} v={v}");
            v *= 1.7;
        }
    }
}

#[test]
fn functional_gemm_through_banks_is_self_consistent() {
    let gemm = GemmShape::new(8, 5, 6).unwrap();
    let weights: Vec<f32> = (0..40).map(|i| ((i % 9) as f32 - 4.0) / 3.0).collect();
    let inputs: Vec<f32> = (0..30).map(|i| ((i % 11) as f32 - 5.0) / 4.0).collect();
    let cfg = DaismConfig::new(2, 2 * 1024, FpFormat::BF16, MultiplierConfig::PC3_TR, 1000.0);
    let mut hw = FunctionalDaism::new(cfg, gemm, &weights).unwrap();
    let out = hw.execute(&inputs).unwrap();
    let reference = hw.reference(&inputs);
    assert_eq!(out.len(), reference.len());
    for (a, b) in out.iter().zip(&reference) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn analytic_model_agrees_with_functional_activations() {
    // The analytical cycle model and the functional datapath must agree
    // on the number of group activations (without zero bypass).
    let gemm = GemmShape::new(10, 7, 8).unwrap();
    let weights: Vec<f32> = (0..70).map(|i| (i as f32 + 1.0) / 70.0).collect();
    let inputs: Vec<f32> = (0..56).map(|i| (i as f32 + 1.0) / 56.0).collect();
    let cfg = DaismConfig::new(2, 2 * 1024, FpFormat::BF16, MultiplierConfig::PC3_TR, 1000.0);
    let model = DaismModel::new(cfg.clone()).unwrap();
    let mapping = model.map(&gemm).unwrap();
    let mut hw = FunctionalDaism::new(cfg, gemm, &weights).unwrap();
    let _ = hw.execute(&inputs).unwrap();
    assert_eq!(hw.activations(), (mapping.segments * gemm.n) as u64);
}

#[test]
fn accuracy_ladder_matches_error_ladder() {
    // The multiplier-level error ladder (FLA worst, PC3 best) must show
    // up as a DNN accuracy ladder on a trained model.
    let data = datasets::gaussian_blobs(4, 12, 240, 120, 31);
    let mut model = models::mlp(12, 20, 4, 1);
    train::fit(
        &mut model,
        &data,
        &ExactMul,
        &train::TrainParams { epochs: 6, ..train::TrainParams::quick_test() },
    );
    let acc = |model: &mut daism::dnn::Sequential, mul: &dyn ScalarMul| {
        train::accuracy(model, &data.test_x, &data.test_y, mul)
    };
    let exact = acc(&mut model, &ExactMul);
    let pc3 = acc(&mut model, &ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16));
    let fla = acc(&mut model, &ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::BF16));
    assert!(exact > 0.7, "baseline failed to train: {exact}");
    // PC3 close to exact; FLA may degrade more (allow slack, small task).
    assert!(pc3 >= exact - 0.15, "PC3 {pc3} vs exact {exact}");
    assert!(pc3 >= fla - 0.05, "PC3 {pc3} should not lose to FLA {fla}");
}

#[test]
fn train_in_float_compile_and_serve_on_approx_datapaths() {
    // The deployment story end to end: train in exact float, compile
    // the trained model once per target datapath, then serve requests
    // through compiled sessions — with accuracy parity against the
    // evaluator (`accuracy`) and the chunked eager forward, which the
    // bit-identity of compiled serving guarantees exactly.
    use daism::dnn::{train::accuracy_compiled, InferenceSession, Layer};
    use daism::BlockFpGemm;

    let data = datasets::gaussian_blobs(3, 8, 180, 60, 19);
    let mut model = models::mlp(8, 16, 3, 1);
    train::fit(
        &mut model,
        &data,
        &ExactMul,
        &train::TrainParams { epochs: 6, ..train::TrainParams::quick_test() },
    );

    let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
    let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 12);
    let eager_float = train::accuracy(&mut model, &data.test_x, &data.test_y, &pc3);
    let eager_bfp = train::accuracy(&mut model, &data.test_x, &data.test_y, &engine);
    // `accuracy` scores through a compiled session; the eager BlockFp
    // forward scores the same (the 60-sample test set is one chunk of
    // the evaluator's 64).
    let logits = model.forward(&data.test_x, &engine, false);
    let hits = logits.argmax_rows().iter().zip(&data.test_y).filter(|(p, l)| p == l).count();
    assert_eq!(hits as f32 / data.test_y.len() as f32, eager_bfp, "eager BlockFp accuracy");

    // Compiled sessions serve the same test set — identical accuracy.
    let compiled_float = model.compile(&pc3);
    assert_eq!(accuracy_compiled(&compiled_float, &data.test_x, &data.test_y), eager_float);
    let compiled_bfp = model.compile(&engine);
    assert_eq!(accuracy_compiled(&compiled_bfp, &data.test_x, &data.test_y), eager_bfp);

    // And a micro-batched request stream scores the same predictions.
    let mut session = InferenceSession::new(&compiled_bfp);
    let n = data.test_x.shape()[0];
    let per = data.test_x.len() / n;
    for s in 0..n {
        let row = data.test_x.data()[s * per..(s + 1) * per].to_vec();
        session.submit(daism::dnn::Tensor::from_vec(row, &[1, per]));
    }
    let outs = session.flush();
    let served: usize = outs
        .iter()
        .zip(&data.test_y)
        .filter(|(logits, &label)| logits.argmax_rows()[0] == label)
        .count();
    assert_eq!(served as f32 / n as f32, eager_bfp, "micro-batched serving accuracy diverged");

    // Deployment sanity: the approximate datapaths stay close to the
    // float baseline on the trained model.
    let exact = train::accuracy(&mut model, &data.test_x, &data.test_y, &ExactMul);
    assert!(eager_float > exact - 0.15, "pc3 serving {eager_float} vs exact {exact}");
    assert!(eager_bfp > exact - 0.15, "blockfp serving {eager_bfp} vs exact {exact}");
}

#[test]
fn paper_constants_are_internally_consistent() {
    // VGG-8 layer 1 numbers quoted throughout the paper, cross-checked
    // between crates.
    let layer1 = &vgg8_layers()[0];
    assert_eq!(layer1.input_count(), 150_528);
    assert_eq!(layer1.kernel_elements(), 1_728);
    let cfg = DaismConfig::paper_1x512kb();
    assert_eq!(cfg.kernel_capacity(), 128 * 256);
    // The whole layer-1 kernel fits with room to spare (paper: "leaving
    // most of the memory unused").
    assert!(layer1.kernel_elements() < cfg.kernel_capacity() / 10);
}

#[test]
fn error_stats_drive_expected_fig4_direction() {
    // Configurations with lower multiplier error must never have
    // *systematically* higher end-to-end degradation; verify the
    // statistics that proposition rests on.
    let pc2 = error_analysis::exhaustive(&MantissaMultiplier::new(
        MultiplierConfig::PC2,
        OperandMode::Fp,
        8,
    ));
    let pc3 = error_analysis::exhaustive(&MantissaMultiplier::new(
        MultiplierConfig::PC3,
        OperandMode::Fp,
        8,
    ));
    assert!(pc3.mean_rel < pc2.mean_rel);
    assert!(pc3.bias.abs() < pc2.bias.abs());
}

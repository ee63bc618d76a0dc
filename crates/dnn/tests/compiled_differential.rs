//! Differential suite for compiled inference sessions: a
//! [`CompiledModel`] must be **byte-identical** to the eager model on
//! the same backend — across every multiplier configuration, scalar and
//! BlockFp backends, batch sizes including 1, and Dense / Conv2d /
//! Residual stacks — and micro-batched serving must be byte-identical
//! to serving each request alone. Plus the serving-specific contracts:
//! thread-count determinism of a shared session, staleness detection,
//! and scratch isolation from interleaved training.

use daism_core::{
    ApproxFpMul, BlockFpGemm, ExactMul, GemmBackend, MultiplierConfig, QuantizedExactMul,
};
use daism_dnn::{
    models, train, Conv2d, InferenceSession, Layer, ReLU, Residual, Sequential, Tensor,
};
use daism_num::FpFormat;
use proptest::prelude::*;

/// The three architecture families of the issue: a Dense stack, a
/// Conv2d stack, and a Residual (conv) stack — with the input shape
/// each expects at the given batch size.
fn stacks(batch: usize) -> Vec<(&'static str, Sequential, Vec<usize>)> {
    vec![
        ("mlp", models::mlp(8, 10, 3, 1), vec![batch, 8]),
        ("mini_vgg", models::mini_vgg(4, 3), vec![batch, 1, 4, 4]),
        ("tiny_resnet", models::tiny_resnet(4, 3), vec![batch, 1, 4, 4]),
    ]
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape diverged");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Compiled == eager, bit for bit, for one backend (scalar multiplier
/// or BlockFp engine) over every stack × batch size.
fn assert_backend_compiles_identically(backend: &dyn GemmBackend, seed: u64) {
    for &batch in &[1usize, 3, 17] {
        for (name, mut model, shape) in stacks(batch) {
            let x = Tensor::randn(&shape, 1.0, seed + batch as u64);
            let compiled = model.compile(backend);
            let eager = model.forward(&x, backend, false);
            let served = compiled.forward(&x);
            assert_bits_eq(&eager, &served, &format!("{}/{name}/batch{batch}", backend.name()));
        }
    }
}

#[test]
fn compiled_equals_eager_all_configs_approx_bf16() {
    for config in MultiplierConfig::ALL {
        let mul = ApproxFpMul::new(config, FpFormat::BF16);
        assert_backend_compiles_identically(&mul, 11);
    }
}

#[test]
fn compiled_equals_eager_all_configs_approx_fp16() {
    for config in MultiplierConfig::ALL {
        let mul = ApproxFpMul::new(config, FpFormat::FP16);
        assert_backend_compiles_identically(&mul, 13);
    }
}

#[test]
fn compiled_equals_eager_exact_backends() {
    assert_backend_compiles_identically(&ExactMul, 17);
    assert_backend_compiles_identically(&QuantizedExactMul::new(FpFormat::BF16), 19);
}

#[test]
fn compiled_equals_eager_all_configs_blockfp_w9() {
    for config in MultiplierConfig::ALL {
        let engine = BlockFpGemm::new(config, 9);
        assert_backend_compiles_identically(&engine, 23);
    }
}

/// Micro-batched serving == per-request serving, bit for bit, for every
/// backend class — including BlockFp conv stacks, which the session
/// must automatically serve per request (per-tile exponents couple
/// batch neighbours, so concatenation there would change bits).
#[test]
fn micro_batched_serving_equals_per_request() {
    let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
    let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 9);
    for (name, model, shape) in stacks(1) {
        let per_sample: Vec<usize> = shape[1..].to_vec();
        let request = |rows: usize, seed: u64| {
            let mut s = vec![rows];
            s.extend_from_slice(&per_sample);
            Tensor::randn(&s, 1.0, seed)
        };
        let backends: Vec<daism_dnn::CompiledModel<'_>> =
            vec![model.compile(&pc3), model.compile(&ExactMul), model.compile(&engine)];
        for compiled in &backends {
            let mut session = InferenceSession::new(compiled);
            let requests: Vec<Tensor> = [1usize, 3, 2, 1]
                .iter()
                .enumerate()
                .map(|(i, &r)| request(r, 70 + i as u64))
                .collect();
            for x in &requests {
                session.submit(x.clone());
            }
            let outs = session.flush();
            assert_eq!(outs.len(), requests.len());
            for (x, y) in requests.iter().zip(&outs) {
                let solo = compiled.forward(x);
                assert_bits_eq(&solo, y, &format!("micro-batch {name}"));
            }
        }
    }
}

/// One shared compiled session driven from N spawned threads produces
/// byte-identical outputs — the model is sized so the batched GEMMs
/// clear the engine's parallel gate. (Pool-*size* invariance lives in
/// `tests/pool_size_determinism.rs`, alone in its own process, because
/// flipping `RAYON_NUM_THREADS` races worker `getenv` calls when other
/// tests run GEMMs concurrently.)
#[test]
fn shared_session_is_deterministic_across_threads() {
    let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
    let model = models::mlp(64, 64, 8, 2); // 32 samples x 64x64: above the 16k-MAC gate
    let compiled = model.compile(&mul);
    let x = Tensor::randn(&[32, 64], 1.0, 91);
    let golden = compiled.forward(&x);

    // N threads share &compiled concurrently.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (compiled, x, golden) = (&compiled, &x, &golden);
                scope.spawn(move || {
                    for _ in 0..3 {
                        assert_bits_eq(golden, &compiled.forward(x), "threaded forward");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("serving thread panicked");
        }
    });
}

/// The staleness contract: an `sgd_step` after `compile` must be
/// *detectable* (`is_stale`), the stale snapshot keeps serving the
/// weights it captured (never a half-updated mix), and `refresh`
/// re-snapshots to bit-parity with the mutated model.
#[test]
fn sgd_step_after_compile_is_detected_and_refresh_rebuilds() {
    let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
    let data = daism_dnn::datasets::gaussian_blobs(3, 8, 48, 16, 7);
    let mut model = models::mlp(8, 10, 3, 1);
    let mut compiled = model.compile(&mul);
    assert!(!compiled.is_stale(&model));
    let x = Tensor::randn(&[4, 8], 1.0, 77);
    let before = model.forward(&x, &mul, false);

    // One real training step mutates every parameter.
    train::fit(
        &mut model,
        &data,
        &mul,
        &train::TrainParams { epochs: 1, ..train::TrainParams::quick_test() },
    );
    assert!(compiled.is_stale(&model), "weight mutation must be detectable");
    // The snapshot still serves exactly the weights it captured…
    assert_bits_eq(&before, &compiled.forward(&x), "stale snapshot drifted");
    // …and refresh brings it to bit-parity with the updated model.
    compiled.refresh(&model);
    assert!(!compiled.is_stale(&model));
    assert_bits_eq(&model.forward(&x, &mul, false), &compiled.forward(&x), "refresh");
}

/// Compiled serving owns per-call scratch: forwards through a compiled
/// model between a training forward and its backward must leave the
/// source layers' reused im2col buffers — and therefore the gradients —
/// untouched.
#[test]
fn compiled_serving_does_not_corrupt_interleaved_training() {
    let mul = ExactMul;
    let build = || {
        Sequential::new()
            .push(Conv2d::new(1, 2, 3, 1, 1, 9))
            .push(ReLU::new())
            .push(Residual::new(Sequential::new().push(Conv2d::new(2, 2, 3, 1, 1, 12))))
    };
    let x_train = Tensor::randn(&[2, 1, 4, 4], 1.0, 31);
    let x_other = Tensor::randn(&[3, 1, 4, 4], 1.0, 77);

    // Clean run: forward + backward, nothing interleaved.
    let mut clean = build();
    let y = clean.forward(&x_train, &mul, true);
    let grad = Tensor::randn(y.shape(), 0.9, 41);
    let gx_clean = clean.backward(&grad, &mul);

    // Mixed run: compiled serving (incl. a micro-batch flush) between
    // the training forward and backward.
    let mut mixed = build();
    let _ = mixed.forward(&x_train, &mul, true);
    let compiled = mixed.compile(&mul);
    let _ = compiled.forward(&x_other);
    let mut session = InferenceSession::new(&compiled);
    session.submit(x_other.clone());
    session.submit(x_train.clone());
    let _ = session.flush();
    let gx_mixed = mixed.backward(&grad, &mul);

    assert_bits_eq(&gx_clean, &gx_mixed, "grad_x corrupted by interleaved compiled serving");
    for (cp, mp) in clean.params_mut().iter().zip(mixed.params_mut().iter()) {
        for (a, b) in cp.grad.data().iter().zip(mp.grad.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "param grad corrupted by compiled serving");
        }
    }
}

/// `accuracy` evaluates through compiled sessions on every backend; the
/// numbers must equal a hand-rolled eager evaluation.
#[test]
fn eval_loops_through_compiled_sessions_match_eager() {
    let data = daism_dnn::datasets::gaussian_blobs(3, 8, 60, 30, 5);
    let mut model = models::mlp(8, 12, 3, 1);
    train::fit(&mut model, &data, &ExactMul, &train::TrainParams::quick_test());
    let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
    let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 12);

    let eager_acc = {
        let logits = model.forward(&data.test_x, &pc3, false);
        let pred = logits.argmax_rows();
        pred.iter().zip(&data.test_y).filter(|(p, l)| p == l).count() as f32
            / data.test_y.len() as f32
    };
    assert_eq!(train::accuracy(&mut model, &data.test_x, &data.test_y, &pc3), eager_acc);

    let eager_bfp = {
        let logits = model.forward(&data.test_x, &engine, false);
        let pred = logits.argmax_rows();
        pred.iter().zip(&data.test_y).filter(|(p, l)| p == l).count() as f32
            / data.test_y.len() as f32
    };
    assert_eq!(train::accuracy(&mut model, &data.test_x, &data.test_y, &engine), eager_bfp);
}

proptest! {
    /// Property form of the bit-identity contract: random inputs (with
    /// exact zeros sprinkled for the bypass paths) through a Dense and
    /// a conv stack on representative backends, compiled == eager.
    #[test]
    fn compiled_equals_eager_on_random_inputs(
        raw in prop::collection::vec(-6.0f32..6.0, 3 * 16),
        batch in 1usize..4,
    ) {
        let vals: Vec<f32> =
            raw.iter().map(|&v| if v.abs() < 1.0 { 0.0 } else { v }).collect();
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let engine = BlockFpGemm::new(MultiplierConfig::PC2_TR, 9);

        let mut mlp = models::mlp(16, 8, 3, 1);
        let x = Tensor::from_vec(vals[..batch * 16].to_vec(), &[batch, 16]);
        let compiled = mlp.compile(&pc3);
        let eager = mlp.forward(&x, &pc3, false);
        let served = compiled.forward(&x);
        for (a, b) in eager.data().iter().zip(served.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "mlp compiled diverged");
        }

        let mut vgg = models::mini_vgg(4, 3);
        let xc = Tensor::from_vec(vals[..batch * 16].to_vec(), &[batch, 1, 4, 4]);
        let compiled_bfp = vgg.compile(&engine);
        let eager_bfp = vgg.forward(&xc, &engine, false);
        let served_bfp = compiled_bfp.forward(&xc);
        for (a, b) in eager_bfp.data().iter().zip(served_bfp.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "vgg blockfp compiled diverged");
        }
    }

    /// Session micro-batching is bit-transparent for any split of a
    /// request stream.
    #[test]
    fn micro_batch_split_is_bit_transparent(
        rows in prop::collection::vec(1usize..4, 1..5),
        seed in 0u64..500,
    ) {
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let model = models::mlp(6, 8, 3, 1);
        let compiled = model.compile(&pc3);
        let mut session = InferenceSession::new(&compiled);
        let requests: Vec<Tensor> = rows
            .iter()
            .enumerate()
            .map(|(i, &r)| Tensor::randn(&[r, 6], 1.0, seed * 31 + i as u64))
            .collect();
        for x in &requests {
            session.submit(x.clone());
        }
        let outs = session.flush();
        for (x, y) in requests.iter().zip(&outs) {
            let solo = compiled.forward(x);
            for (a, b) in solo.data().iter().zip(y.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "split diverged");
            }
        }
    }
}

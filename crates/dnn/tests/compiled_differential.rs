//! Differential suite for the compiled layers: a model's forward and a
//! [`CompiledModel`] built from it must both be **byte-identical** to a
//! reference forward that feeds the raw weights to
//! [`GemmBackend::gemm`] — across every multiplier configuration,
//! scalar and BlockFp backends, batch sizes including 1, and Dense /
//! Conv2d / Residual stacks — and micro-batched serving must be
//! byte-identical to serving each request alone. The reference is the
//! second path: the layers themselves only ever run the stored-operand
//! GEMMs (`gemm_prepared_a` / `gemm_prepared_b`). Plus the
//! serving-specific contracts: thread-count determinism of a shared
//! session, staleness detection, and scratch isolation from
//! interleaved training.

use daism_core::{
    ApproxFpMul, BlockFpGemm, ExactMul, GemmBackend, MultiplierConfig, QuantizedExactMul,
};
use daism_dnn::{
    models, train, Conv2d, InferenceSession, Layer, Param, ReLU, Residual, Sequential, Tensor,
};
use daism_num::FpFormat;
use proptest::prelude::*;

/// One layer of a stack as the reference forward sees it. The weights
/// come from the model's `params()`, in order.
enum Op {
    Dense,
    /// A square-kernel conv; the kernel size follows from the weights.
    Conv {
        stride: usize,
        padding: usize,
    },
    Relu,
    Pool,
    Flatten,
    Residual(Vec<Op>),
}

/// `models::mlp(_, _, _, 1)`.
fn mlp_ops() -> Vec<Op> {
    vec![Op::Dense, Op::Relu, Op::Dense]
}

/// `models::mini_vgg`.
fn mini_vgg_ops() -> Vec<Op> {
    let conv = || Op::Conv { stride: 1, padding: 1 };
    vec![
        conv(),
        Op::Relu,
        Op::Pool,
        conv(),
        Op::Relu,
        Op::Pool,
        Op::Flatten,
        Op::Dense,
        Op::Relu,
        Op::Dense,
    ]
}

/// `models::tiny_resnet`.
fn tiny_resnet_ops() -> Vec<Op> {
    let conv = || Op::Conv { stride: 1, padding: 1 };
    let block = || Op::Residual(vec![conv(), Op::Relu, conv()]);
    vec![
        conv(),
        Op::Relu,
        block(),
        Op::Relu,
        Op::Pool,
        block(),
        Op::Relu,
        Op::Pool,
        Op::Flatten,
        Op::Dense,
    ]
}

/// `model` with random biases: a fresh layer's biases are zero, which
/// would hide a bias the compiled forward drops or misplaces.
fn with_biases(mut model: Sequential) -> Sequential {
    for (i, p) in model.params_mut().into_iter().enumerate() {
        if p.value.shape().len() == 1 {
            p.value = Tensor::randn(p.value.shape(), 0.5, 900 + i as u64);
        }
    }
    model
}

/// The three architecture families: a Dense stack, a Conv2d stack, and
/// a Residual (conv) stack — with their reference structure and the
/// input shape each expects at the given batch size.
fn stacks(batch: usize) -> Vec<(&'static str, Sequential, Vec<Op>, Vec<usize>)> {
    vec![
        ("mlp", with_biases(models::mlp(8, 10, 3, 1)), mlp_ops(), vec![batch, 8]),
        ("mini_vgg", with_biases(models::mini_vgg(4, 3)), mini_vgg_ops(), vec![batch, 1, 4, 4]),
        (
            "tiny_resnet",
            with_biases(models::tiny_resnet(4, 3)),
            tiny_resnet_ops(),
            vec![batch, 1, 4, 4],
        ),
    ]
}

/// `y = x · Wᵀ + b` through `backend.gemm` on the raw `[out, in]`
/// weights.
fn dense_ref(x: &Tensor, w: &Param, b: &Param, backend: &dyn GemmBackend) -> Tensor {
    let (out, inp) = (w.value.shape()[0], w.value.shape()[1]);
    let batch = x.shape()[0];
    let mut wt = vec![0.0f32; inp * out];
    for o in 0..out {
        for i in 0..inp {
            wt[i * out + o] = w.value.data()[o * inp + i];
        }
    }
    let mut y = Tensor::zeros(&[batch, out]);
    backend.gemm(x.data(), &wt, y.data_mut(), batch, inp, out);
    for n in 0..batch {
        for o in 0..out {
            y.data_mut()[n * out + o] += b.value.data()[o];
        }
    }
    y
}

/// `W · cols + b` through `backend.gemm` on the raw kernel matrix, with
/// the whole batch lowered into one `[in_ch·k·k, batch·oh·ow]` matrix
/// (sample-major columns). One GEMM per batch, not per sample: a
/// backend that couples B columns (BlockFp) sees the same tiles as the
/// layer.
fn conv_ref(
    x: &Tensor,
    w: &Param,
    b: &Param,
    stride: usize,
    padding: usize,
    backend: &dyn GemmBackend,
) -> Tensor {
    let (batch, in_ch, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (out_ch, kdim) = (w.value.shape()[0], w.value.shape()[1]);
    let k = (1..=kdim).find(|k| in_ch * k * k == kdim).expect("square kernel");
    let (oh, ow) = ((h + 2 * padding - k) / stride + 1, (wd + 2 * padding - k) / stride + 1);
    let (p, bp) = (oh * ow, batch * oh * ow);
    let mut cols = vec![0.0f32; kdim * bp];
    for n in 0..batch {
        for c in 0..in_ch {
            for ki in 0..k {
                for kj in 0..k {
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let si = (oi * stride + ki) as isize - padding as isize;
                            let sj = (oj * stride + kj) as isize - padding as isize;
                            if (0..h as isize).contains(&si) && (0..wd as isize).contains(&sj) {
                                cols[((c * k + ki) * k + kj) * bp + n * p + oi * ow + oj] =
                                    x.data()[x.offset4(n, c, si as usize, sj as usize)];
                            }
                        }
                    }
                }
            }
        }
    }
    let mut staged = vec![0.0f32; out_ch * bp];
    backend.gemm(w.value.data(), &cols, &mut staged, out_ch, kdim, bp);
    let mut y = Tensor::zeros(&[batch, out_ch, oh, ow]);
    for n in 0..batch {
        for c in 0..out_ch {
            for q in 0..p {
                y.data_mut()[(n * out_ch + c) * p + q] =
                    staged[c * bp + n * p + q] + b.value.data()[c];
            }
        }
    }
    y
}

fn pool_ref(x: &Tensor) -> Tensor {
    let (batch, ch, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let mut y = Tensor::zeros(&[batch, ch, h / 2, w / 2]);
    let mut i = 0;
    for n in 0..batch {
        for c in 0..ch {
            for oi in 0..h / 2 {
                for oj in 0..w / 2 {
                    let at = |di, dj| x.data()[x.offset4(n, c, 2 * oi + di, 2 * oj + dj)];
                    // First maximum in row-major window order, as the layer picks it.
                    let mut best = f32::NEG_INFINITY;
                    for v in [at(0, 0), at(0, 1), at(1, 0), at(1, 1)] {
                        if v > best {
                            best = v;
                        }
                    }
                    y.data_mut()[i] = best;
                    i += 1;
                }
            }
        }
    }
    y
}

fn reference_walk<'p>(
    ops: &[Op],
    params: &mut impl Iterator<Item = &'p Param>,
    x: &Tensor,
    backend: &dyn GemmBackend,
) -> Tensor {
    let mut y = x.clone();
    for op in ops {
        let mut next = || params.next().expect("stack structure matches the model's params");
        y = match op {
            Op::Dense => {
                let (w, b) = (next(), next());
                dense_ref(&y, w, b, backend)
            }
            &Op::Conv { stride, padding } => {
                let (w, b) = (next(), next());
                conv_ref(&y, w, b, stride, padding, backend)
            }
            Op::Relu => y.map(|v| v.max(0.0)),
            Op::Pool => pool_ref(&y),
            Op::Flatten => {
                let batch = y.shape()[0];
                y.reshape(&[batch, y.len() / batch])
            }
            Op::Residual(inner) => reference_walk(inner, params, &y, backend).add(&y),
        };
    }
    y
}

/// The reference inference forward of `model` (structure `ops`) on
/// `backend`: every GEMM through [`GemmBackend::gemm`] on the raw
/// weights.
fn reference_forward(
    model: &Sequential,
    ops: &[Op],
    x: &Tensor,
    backend: &dyn GemmBackend,
) -> Tensor {
    let params = model.params();
    let mut it = params.into_iter();
    let y = reference_walk(ops, &mut it, x, backend);
    assert!(it.next().is_none(), "stack structure leaves params unused");
    y
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape diverged");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Reference == model forward == compiled model, bit for bit, for one
/// backend (scalar multiplier or BlockFp engine) over every stack ×
/// batch size.
fn assert_backend_compiles_identically(backend: &dyn GemmBackend, seed: u64) {
    for &batch in &[1usize, 3, 17] {
        for (name, mut model, ops, shape) in stacks(batch) {
            let x = Tensor::randn(&shape, 1.0, seed + batch as u64);
            let what = format!("{}/{name}/batch{batch}", backend.name());
            let reference = reference_forward(&model, &ops, &x, backend);
            let compiled = model.compile(backend);
            assert_bits_eq(&reference, &compiled.forward(&x), &format!("compiled {what}"));
            let eager = model.forward(&x, backend, false);
            assert_bits_eq(&reference, &eager, &format!("forward {what}"));
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
    for (name, model, _, shape) in stacks(1) {
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
    let before = reference_forward(&model, &mlp_ops(), &x, &mul);

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
    let after = reference_forward(&model, &mlp_ops(), &x, &mul);
    assert_bits_eq(&after, &compiled.forward(&x), "refresh");
}

/// Compiled serving owns per-call scratch: forwards through a compiled
/// model between a training forward and its backward must leave the
/// lowering the source layers kept for backward — and therefore the
/// gradients — untouched.
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
/// numbers must equal a hand-rolled evaluation through the reference
/// forward.
#[test]
fn eval_loops_through_compiled_sessions_match_eager() {
    let data = daism_dnn::datasets::gaussian_blobs(3, 8, 60, 30, 5);
    let mut model = models::mlp(8, 12, 3, 1);
    train::fit(&mut model, &data, &ExactMul, &train::TrainParams::quick_test());
    let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
    let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 12);

    for backend in [&pc3 as &dyn GemmBackend, &engine] {
        let logits = reference_forward(&model, &mlp_ops(), &data.test_x, backend);
        let pred = logits.argmax_rows();
        let reference_acc = pred.iter().zip(&data.test_y).filter(|(p, l)| p == l).count() as f32
            / data.test_y.len() as f32;
        let acc = train::accuracy(&mut model, &data.test_x, &data.test_y, backend);
        assert_eq!(acc, reference_acc, "{}", backend.name());
    }
}

proptest! {
    /// Property form of the bit-identity contract: random inputs (with
    /// exact zeros sprinkled for the bypass paths) through a Dense and
    /// a conv stack on representative backends, compiled == model
    /// forward == reference.
    #[test]
    fn compiled_equals_eager_on_random_inputs(
        raw in prop::collection::vec(-6.0f32..6.0, 3 * 16),
        batch in 1usize..4,
    ) {
        let vals: Vec<f32> =
            raw.iter().map(|&v| if v.abs() < 1.0 { 0.0 } else { v }).collect();
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let engine = BlockFpGemm::new(MultiplierConfig::PC2_TR, 9);

        let mut mlp = with_biases(models::mlp(16, 8, 3, 1));
        let x = Tensor::from_vec(vals[..batch * 16].to_vec(), &[batch, 16]);
        let reference = reference_forward(&mlp, &mlp_ops(), &x, &pc3);
        let served = mlp.compile(&pc3).forward(&x);
        let eager = mlp.forward(&x, &pc3, false);
        for ((r, s), e) in reference.data().iter().zip(served.data()).zip(eager.data()) {
            prop_assert_eq!(r.to_bits(), s.to_bits(), "mlp compiled diverged");
            prop_assert_eq!(r.to_bits(), e.to_bits(), "mlp forward diverged");
        }

        let mut vgg = with_biases(models::mini_vgg(4, 3));
        let xc = Tensor::from_vec(vals[..batch * 16].to_vec(), &[batch, 1, 4, 4]);
        let reference_bfp = reference_forward(&vgg, &mini_vgg_ops(), &xc, &engine);
        let served_bfp = vgg.compile(&engine).forward(&xc);
        let eager_bfp = vgg.forward(&xc, &engine, false);
        for ((r, s), e) in
            reference_bfp.data().iter().zip(served_bfp.data()).zip(eager_bfp.data())
        {
            prop_assert_eq!(r.to_bits(), s.to_bits(), "vgg blockfp compiled diverged");
            prop_assert_eq!(r.to_bits(), e.to_bits(), "vgg blockfp forward diverged");
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

//! Training loop, loss and evaluation — all routed through a pluggable
//! [`GemmBackend`], enabling both exact training and the paper's
//! "training … with approximate multipliers" claim.

use crate::datasets::Dataset;
use crate::layers::{Layer, Param, Sequential};
use crate::tensor::Tensor;
use daism_core::GemmBackend;

/// Hyper-parameters for [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainParams {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams { epochs: 10, batch: 16, lr: 0.05, momentum: 0.9, weight_decay: 1e-4 }
    }
}

impl TrainParams {
    /// A tiny budget for unit tests (2 epochs, small batches).
    pub fn quick_test() -> Self {
        TrainParams { epochs: 2, batch: 8, lr: 0.08, ..Default::default() }
    }
}

/// Per-epoch training history.
#[derive(Debug, Clone, PartialEq)]
pub struct History {
    /// Mean training loss per epoch.
    pub loss: Vec<f32>,
    /// Training accuracy per epoch.
    pub train_acc: Vec<f32>,
}

/// Softmax cross-entropy: returns `(mean loss, grad w.r.t. logits)`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().len(), 2);
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), batch, "label count mismatch");
    let mut grad = Tensor::zeros(logits.shape());
    let mut loss = 0.0f32;
    for (n, &label) in labels.iter().enumerate() {
        let row = &logits.data()[n * classes..(n + 1) * classes];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        assert!(label < classes, "label {label} out of range");
        loss -= (exps[label] / sum).max(1e-12).ln();
        for (c, &e) in exps.iter().enumerate() {
            let p = e / sum;
            grad.data_mut()[n * classes + c] =
                (p - if c == label { 1.0 } else { 0.0 }) / batch as f32;
        }
    }
    (loss / batch as f32, grad)
}

/// One SGD-with-momentum step over the model's parameters.
pub fn sgd_step(model: &mut Sequential, lr: f32, momentum: f32, weight_decay: f32) {
    for p in model.params_mut() {
        let Param { value, grad, velocity } = &mut *p;
        for ((v, &g), vel) in value.data_mut().iter_mut().zip(grad.data()).zip(velocity.data_mut())
        {
            *vel = momentum * *vel - lr * (g + weight_decay * *v);
            *v += *vel;
        }
        p.zero_grad();
    }
}

fn slice_batch(x: &Tensor, from: usize, to: usize) -> Tensor {
    let per = x.len() / x.shape()[0];
    let mut shape = x.shape().to_vec();
    shape[0] = to - from;
    Tensor::from_vec(x.data()[from * per..to * per].to_vec(), &shape)
}

/// Trains `model` on `data.train_*` with `backend` running every GEMM
/// (exact or approximate — the latter exercises the paper's training
/// claim).
pub fn fit(
    model: &mut Sequential,
    data: &Dataset,
    backend: &dyn GemmBackend,
    params: &TrainParams,
) -> History {
    let n = data.train_len();
    let mut history = History { loss: Vec::new(), train_acc: Vec::new() };
    for _epoch in 0..params.epochs {
        let mut epoch_loss = 0.0f32;
        let mut batches = 0;
        let mut start = 0;
        while start < n {
            let end = (start + params.batch).min(n);
            let x = slice_batch(&data.train_x, start, end);
            let y = &data.train_y[start..end];
            let logits = model.forward(&x, backend, true);
            let (loss, grad) = softmax_cross_entropy(&logits, y);
            model.backward(&grad, backend);
            sgd_step(model, params.lr, params.momentum, params.weight_decay);
            epoch_loss += loss;
            batches += 1;
            start = end;
        }
        history.loss.push(epoch_loss / batches as f32);
        history.train_acc.push(accuracy(model, &data.train_x, &data.train_y, backend));
    }
    history
}

/// Classification accuracy on `(x, labels)` through an
/// already-[compiled](crate::CompiledModel) model — the evaluator
/// [`accuracy`] runs, also usable directly when the caller wants to
/// amortise one compile over many evaluations. The test set is scored
/// in chunks of 64 samples, which bounds activation memory.
pub fn accuracy_compiled(model: &crate::CompiledModel<'_>, x: &Tensor, labels: &[usize]) -> f32 {
    let n = x.shape()[0];
    let chunk = 64usize;
    let mut correct = 0usize;
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        let logits = model.forward(&slice_batch(x, start, end));
        let pred = logits.argmax_rows();
        correct += pred.iter().zip(&labels[start..end]).filter(|(p, l)| p == l).count();
        start = end;
    }
    correct as f32 / n as f32
}

/// Classification accuracy of `model` on `(x, labels)` on `backend` — a
/// scalar multiplier, or the BlockFp engine for the paper's
/// train-in-float, deploy-on-the-integer-datapath scenario.
///
/// The model is compiled once (weights prepared in `backend`'s serving
/// form) and every chunk is scored through the compiled model, whose
/// outputs are byte-identical to the layers' own forwards.
pub fn accuracy(
    model: &Sequential,
    x: &Tensor,
    labels: &[usize],
    backend: &dyn GemmBackend,
) -> f32 {
    accuracy_compiled(&model.compile(backend), x, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::models;
    use daism_core::{ApproxFpMul, BlockFpGemm, ExactMul, MultiplierConfig, QuantizedExactMul};
    use daism_num::FpFormat;

    #[test]
    fn softmax_xent_known_values() {
        // Uniform logits: loss = ln(C); gradient pushes towards label.
        let logits = Tensor::zeros(&[1, 4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[2]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-6);
        assert!(grad.data()[2] < 0.0);
        assert!(grad.data()[0] > 0.0);
        let sum: f32 = grad.data().iter().sum();
        assert!(sum.abs() < 1e-6);
    }

    #[test]
    fn xent_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 0.9], &[1, 3]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1]);
        let eps = 1e-3f32;
        for e in 0..3 {
            let mut lp = logits.clone();
            lp.data_mut()[e] += eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &[1]);
            let mut lm = logits.clone();
            lm.data_mut()[e] -= eps;
            let (loss_m, _) = softmax_cross_entropy(&lm, &[1]);
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!((grad.data()[e] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn mlp_learns_blobs() {
        let data = datasets::gaussian_blobs(3, 8, 150, 60, 11);
        let mut model = models::mlp(8, 16, 3, 1);
        let h = fit(
            &mut model,
            &data,
            &ExactMul,
            &TrainParams { epochs: 6, ..TrainParams::quick_test() },
        );
        // Loss decreases and accuracy is well above chance (1/3).
        assert!(h.loss.last().unwrap() < h.loss.first().unwrap());
        let acc = accuracy(&model, &data.test_x, &data.test_y, &ExactMul);
        assert!(acc > 0.7, "test accuracy {acc}");
    }

    #[test]
    fn trained_model_survives_bf16_and_pc3() {
        let data = datasets::gaussian_blobs(3, 8, 150, 60, 13);
        let mut model = models::mlp(8, 16, 3, 1);
        fit(&mut model, &data, &ExactMul, &TrainParams { epochs: 6, ..TrainParams::quick_test() });
        let exact = accuracy(&model, &data.test_x, &data.test_y, &ExactMul);
        let bf16 =
            accuracy(&model, &data.test_x, &data.test_y, &QuantizedExactMul::new(FpFormat::BF16));
        let pc3 = accuracy(
            &model,
            &data.test_x,
            &data.test_y,
            &ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16),
        );
        // The Fig. 4 shape: approximate accuracy close to the baseline.
        assert!(bf16 > exact - 0.1, "bf16 {bf16} vs exact {exact}");
        assert!(pc3 > exact - 0.15, "pc3 {pc3} vs exact {exact}");
    }

    #[test]
    fn trained_model_survives_blockfp_inference() {
        // The paper's BlockFp deployment scenario end to end: train in
        // float, then run inference entirely on the block-floating-point
        // integer datapath (per-tile exponents, OR-approximate mantissa
        // products). Accuracy must stay close to the float baseline.
        let data = datasets::gaussian_blobs(3, 8, 150, 60, 13);
        let mut model = models::mlp(8, 16, 3, 1);
        fit(&mut model, &data, &ExactMul, &TrainParams { epochs: 6, ..TrainParams::quick_test() });
        let exact = accuracy(&model, &data.test_x, &data.test_y, &ExactMul);
        let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 12);
        let bfp = accuracy(&model, &data.test_x, &data.test_y, &engine);
        assert!(bfp > exact - 0.15, "blockfp {bfp} vs exact {exact}");
        // A coarser mantissa on the weakest multiplier still beats chance.
        let fla = BlockFpGemm::new(MultiplierConfig::FLA, 8);
        let coarse = accuracy(&model, &data.test_x, &data.test_y, &fla);
        assert!(coarse > 0.4, "coarse blockfp accuracy {coarse}");
        // The compiled, chunked evaluation equals one forward of the
        // whole test set through the layers' own forwards (Dense layers
        // keep samples independent, so chunking cannot change them).
        for (engine, acc) in [(&engine, bfp), (&fla, coarse)] {
            let pred = model.forward(&data.test_x, engine, false).argmax_rows();
            let hits = pred.iter().zip(&data.test_y).filter(|(p, y)| p == y).count();
            let eager = hits as f32 / data.test_len() as f32;
            assert_eq!(acc, eager, "{}: compiled accuracy diverged from eager", engine.name());
        }
    }

    #[test]
    fn training_with_approximate_multiplier_converges() {
        // The title claim: end-to-end *training* on the approximate
        // multiplier (forward and backward GEMMs both approximate).
        let data = datasets::gaussian_blobs(2, 4, 80, 40, 17);
        let mut model = models::mlp(4, 8, 2, 1);
        let approx = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let h = fit(
            &mut model,
            &data,
            &approx,
            &TrainParams { epochs: 5, ..TrainParams::quick_test() },
        );
        let acc = accuracy(&model, &data.test_x, &data.test_y, &approx);
        assert!(acc > 0.7, "approx-trained accuracy {acc}");
        assert!(h.loss.last().unwrap() < h.loss.first().unwrap());
    }

    #[test]
    fn sgd_step_moves_parameters_and_clears_grads() {
        let mut model = models::mlp(4, 4, 2, 1);
        let x = Tensor::randn(&[4, 4], 1.0, 5);
        let logits = model.forward(&x, &ExactMul, true);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1, 0, 1]);
        model.backward(&grad, &ExactMul);
        let before: Vec<f32> = model.params_mut()[0].value.data().to_vec();
        sgd_step(&mut model, 0.1, 0.9, 0.0);
        let after: Vec<f32> = model.params_mut()[0].value.data().to_vec();
        assert_ne!(before, after);
        assert!(model.params_mut()[0].grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn accuracy_on_untrained_model_is_near_chance() {
        let data = datasets::gaussian_blobs(4, 6, 40, 200, 23);
        let model = models::mlp(6, 8, 4, 1);
        let acc = accuracy(&model, &data.test_x, &data.test_y, &ExactMul);
        assert!(acc < 0.6, "untrained accuracy suspiciously high: {acc}");
    }
}

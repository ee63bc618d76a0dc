//! The training workload: the CNN trained on the synthetic shapes task
//! (noisy images) with bf16 / PC3_tr approximate products in every
//! forward and backward GEMM. One tick is one SGD step (forward, loss,
//! backward, update) on a minibatch of [`BATCH`] images drawn in a seeded
//! order.
//!
//! The loop trains one epoch after another, each from the same initial
//! weights over the same minibatches, and ends each with a held-out
//! evaluation. How fast a step runs depends on the state of the network
//! (zero operands skip the multiplier), so restarting makes every run
//! measure the same mix of early and late training, whatever its length,
//! and makes every epoch repeat the first one bit for bit.

use crate::model::Net;
use crate::trace::Tracer;
use crate::{closed_loop, end_to_end, median_setup, quiet_ticks, Args, Report, Rng, Tick};
use daism_core::{ApproxFpMul, MultiplierConfig};
use daism_dnn::datasets::{self, Dataset};
use daism_dnn::train::{accuracy, sgd_step, softmax_cross_entropy, TrainParams};
use daism_dnn::{Layer, Sequential, Tensor};
use daism_num::FpFormat;

/// Images per SGD step.
const BATCH: usize = 8;
const TRAIN_SAMPLES: usize = 2048;
const TEST_SAMPLES: usize = 128;
/// Additive pixel noise: enough that the task is not solved in a few
/// dozen steps, so the loss (and the gradients) stay away from zero.
const NOISE: f32 = 1.0;
/// Steps in one epoch: one pass over the training set.
const EPOCH: usize = TRAIN_SAMPLES / BATCH;
/// Steps averaged at each end of the first epoch by the learning check.
const WINDOW: usize = 32;
/// The mean loss of the last `WINDOW` steps of an epoch must be below
/// this share of the mean loss of its first `WINDOW` steps.
const MAX_LOSS_RATIO: f32 = 0.7;
/// Least held-out accuracy after an epoch (four classes: chance is 0.25).
const MIN_ACCURACY: f32 = 0.5;

fn backend() -> ApproxFpMul {
    ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)
}

fn dataset(seed: u64) -> Dataset {
    datasets::shapes_noisy(16, TRAIN_SAMPLES, TEST_SAMPLES, seed, NOISE)
}

/// `train::fit`'s defaults with a smaller learning rate, which keeps
/// momentum SGD stable on the noisy task.
fn hyper() -> TrainParams {
    TrainParams { lr: 0.02, ..TrainParams::default() }
}

/// Minibatches for one pass over the training set in a seeded order.
fn minibatches(data: &Dataset, seed: u64) -> Vec<(Tensor, Vec<usize>)> {
    let mut order: Vec<usize> = (0..data.train_len()).collect();
    let mut rng = Rng::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range(0, i));
    }
    let per = data.train_x.len() / data.train_len();
    order
        .chunks(BATCH)
        .map(|rows| {
            let mut x = Vec::with_capacity(rows.len() * per);
            for &r in rows {
                x.extend_from_slice(&data.train_x.data()[r * per..(r + 1) * per]);
            }
            let mut shape = data.train_x.shape().to_vec();
            shape[0] = rows.len();
            let labels = rows.iter().map(|&r| data.train_y[r]).collect();
            (Tensor::from_vec(x, &shape), labels)
        })
        .collect()
}

/// One SGD step through the whole model, as `train::fit` makes it.
fn step(model: &mut Sequential, mul: &ApproxFpMul, x: &Tensor, labels: &[usize]) -> f32 {
    let p = hyper();
    let logits = model.forward(x, mul, true);
    let (loss, grad) = softmax_cross_entropy(&logits, labels);
    model.backward(&grad, mul);
    sgd_step(model, p.lr, p.momentum, p.weight_decay);
    loss
}

/// The same step through one single-layer model per layer, with a span
/// around every layer's forward and backward.
fn traced_step(
    net: &Net,
    stages: &mut [Sequential],
    mul: &ApproxFpMul,
    x: &Tensor,
    labels: &[usize],
    tracer: &mut Tracer,
    i: u64,
) -> f32 {
    let p = hyper();
    let root = tracer.begin("tick", None, i);
    let fwd = tracer.begin("forward", Some(root), i);
    let mut h = x.clone();
    for (spec, stage) in net.specs.iter().zip(stages.iter_mut()) {
        h = tracer.leaf(spec.fwd_span(), fwd, i, || stage.forward(&h, mul, true));
    }
    tracer.end(fwd);
    let (loss, grad) = tracer.leaf("loss", root, i, || softmax_cross_entropy(&h, labels));
    let bwd = tracer.begin("backward", Some(root), i);
    let mut g = grad;
    for (spec, stage) in net.specs.iter().zip(stages.iter_mut()).rev() {
        g = tracer.leaf(spec.bwd_span(), bwd, i, || stage.backward(&g, mul));
    }
    tracer.end(bwd);
    tracer.leaf("sgd", root, i, || {
        for stage in stages.iter_mut() {
            sgd_step(stage, p.lr, p.momentum, p.weight_decay);
        }
    });
    tracer.end(root);
    loss
}

fn param_bits(models: &[Sequential]) -> Vec<u32> {
    models
        .iter()
        .flat_map(|m| m.params())
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect()
}

/// Held-out accuracy of a model trained layer by layer, from an eager
/// inference forward through every layer.
fn staged_accuracy(stages: &mut [Sequential], mul: &ApproxFpMul, data: &Dataset) -> f32 {
    let logits =
        stages.iter_mut().fold(data.test_x.clone(), |h, stage| stage.forward(&h, mul, false));
    let hits = logits.argmax_rows().iter().zip(&data.test_y).filter(|(p, y)| p == y).count();
    hits as f32 / data.test_len() as f32
}

pub fn run(args: &Args) -> Report {
    let net = Net::cnn();
    let setup = || (backend(), net.whole(), dataset(args.seed));
    let setup_before = median_setup(setup);
    let mul = backend();
    let data = dataset(args.seed);
    let batches = minibatches(&data, args.seed);

    let mut failed = 0u64;
    if args.trace {
        // The per-layer run must train exactly like the whole model.
        let mut whole = net.whole();
        let mut split = net.stages();
        let mut probe = Tracer::new(false);
        for (i, (x, y)) in batches.iter().take(2).enumerate() {
            let a = step(&mut whole, &mul, x, y);
            let b = traced_step(&net, &mut split, &mul, x, y, &mut probe, i as u64);
            if a.to_bits() != b.to_bits() {
                failed += 1;
            }
        }
        if param_bits(std::slice::from_ref(&whole)) != param_bits(&split) {
            failed += 1;
        }
    }

    let mut model = net.whole();
    let mut stages = net.stages();
    let mut tracer = Tracer::new(args.trace);
    let mut losses = Vec::new();
    let mut accuracies = Vec::new();
    let stats = closed_loop(args.seconds, EPOCH, |i| {
        let k = i as usize % EPOCH;
        if k == 0 && i > 0 {
            model = net.whole();
            stages = net.stages();
        }
        let (x, y) = &batches[k];
        let loss = if args.trace {
            traced_step(&net, &mut stages, &mul, x, y, &mut tracer, i)
        } else {
            step(&mut model, &mul, x, y)
        };
        losses.push(loss);
        if k == EPOCH - 1 {
            accuracies.push(if args.trace {
                staged_accuracy(&mut stages, &mul, &data)
            } else {
                accuracy(&mut model, &data.test_x, &data.test_y, &mul)
            });
        }
        Tick { requests: 1, samples: x.shape()[0] as u64 }
    });

    // Every epoch must repeat the first bit for bit.
    let first_epoch = &losses[..EPOCH];
    for epoch in losses.chunks(EPOCH).skip(1) {
        if epoch.iter().zip(first_epoch).any(|(a, b)| a.to_bits() != b.to_bits()) {
            failed += 1;
        }
    }
    failed += accuracies.iter().filter(|a| a.to_bits() != accuracies[0].to_bits()).count() as u64;
    failed +=
        losses[crate::WARMUP_TICKS as usize..].iter().filter(|l| !l.is_finite()).count() as u64;

    let mean = |w: &[f32]| w.iter().sum::<f32>() / w.len() as f32;
    let (first, last) = (mean(&first_epoch[..WINDOW]), mean(&first_epoch[EPOCH - WINDOW..]));
    eprintln!(
        "perfbench: epoch loss {first:.4} -> {last:.4}, held-out accuracy {:.3}, {} epochs",
        accuracies[0],
        losses.len() as f64 / EPOCH as f64
    );
    let learned = last < MAX_LOSS_RATIO * first && accuracies[0] >= MIN_ACCURACY;

    let metrics = if args.trace {
        tracer.write(args);
        let params: usize = stages.iter().flat_map(|s| s.params()).map(|p| p.value.len()).sum();
        crate::per_layer(&tracer, &net, &quiet_ticks(&stats), 1.0, params as f64)
    } else {
        end_to_end(&stats, setup_before.min(median_setup(setup)))
    };
    Report { correct: failed == 0 && learned, attempted: stats.requests, failed, metrics }
}

//! The serving workload, `cnn_serve`. One closed-loop client sends a
//! burst of requests to each served model, waits for every reply, then
//! sends the next burst; a tick's latency is the time from sending the
//! burst to the last reply. Each served model sits behind its own
//! `InferenceSession`, which concatenates the burst into one batched
//! forward.
//!
//! The CNN is compiled twice from one set of weights, both at PC3_tr:
//! bf16 (8-bit mantissas, served from the product table) and fp16
//! (11-bit mantissas, served by the OR-pattern path). Each burst is 8
//! images to bf16 and 2 to fp16, in requests of 1–4.

use crate::model::Net;
use crate::trace::Tracer;
use crate::{closed_loop, end_to_end, median_setup, quiet_ticks, Args, Report, Rng, Tick};
use daism_core::{ApproxFpMul, ExactMul, MultiplierConfig};
use daism_dnn::{datasets, CompiledModel, Flatten, InferenceSession, Layer, Sequential, Tensor};
use daism_num::FpFormat;

/// Distinct input samples the requests draw from.
const INPUT_POOL: usize = 256;
/// Distinct bursts in the schedule; the client cycles through them.
const SCHEDULE_TICKS: usize = 512;
/// Every `VERIFY_EVERY`-th tick's replies are kept and checked.
const VERIFY_EVERY: u64 = 8;
/// At most this many replies per served model are checked.
const VERIFY_MAX: usize = 128;
/// Largest relative L2 distance of a served model's replies from the
/// exact-f32 forward of the same weights.
const MAX_REL_ERROR: f64 = 0.35;

/// The shape of one workload's traffic. Every burst sends a fixed
/// number of samples to each served model, split into requests of
/// seeded sizes, so ticks differ in how the work is split (what the
/// micro-batcher sees) but not in how much work there is.
struct Traffic {
    net: Net,
    /// Each served model's format and the samples a burst sends it.
    models: Vec<(FpFormat, usize)>,
    /// Largest request, in samples.
    max_request: usize,
    /// The input pool, `[INPUT_POOL, sample_shape..]`.
    inputs: Tensor,
}

pub fn cnn(args: &Args) -> Report {
    let data = datasets::shapes(16, INPUT_POOL, 1, args.seed);
    run(
        args,
        Traffic {
            net: Net::cnn(),
            // An fp16 forward costs about four bf16 ones, so fp16 gets
            // a quarter of the images and neither path dominates a tick.
            models: vec![(FpFormat::BF16, 8), (FpFormat::FP16, 2)],
            max_request: 4,
            inputs: data.train_x,
        },
    )
}

fn backend(format: FpFormat) -> ApproxFpMul {
    ApproxFpMul::new(MultiplierConfig::PC3_TR, format)
}

/// Stacks `rows` of the input pool into one request tensor.
fn gather(pool: &Tensor, rows: &[usize]) -> Tensor {
    let per = pool.len() / pool.shape()[0];
    let mut data = Vec::with_capacity(rows.len() * per);
    for &r in rows {
        data.extend_from_slice(&pool.data()[r * per..(r + 1) * per]);
    }
    let mut shape = pool.shape().to_vec();
    shape[0] = rows.len();
    Tensor::from_vec(data, &shape)
}

/// `schedule[tick][model]` is the list of requests that burst sends.
fn schedule(traffic: &Traffic, seed: u64) -> Vec<Vec<Vec<Tensor>>> {
    let mut rng = Rng::new(seed);
    (0..SCHEDULE_TICKS)
        .map(|_| {
            traffic
                .models
                .iter()
                .map(|&(_, samples)| {
                    let mut requests = Vec::new();
                    let mut left = samples;
                    while left > 0 {
                        let size = rng.range(1, traffic.max_request.min(left));
                        let rows: Vec<usize> =
                            (0..size).map(|_| rng.range(0, INPUT_POOL - 1)).collect();
                        requests.push(gather(&traffic.inputs, &rows));
                        left -= size;
                    }
                    requests
                })
                .collect()
        })
        .collect()
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Concatenates requests along the batch dimension.
fn concat(requests: &[Tensor]) -> Tensor {
    let mut shape = requests[0].shape().to_vec();
    shape[0] = requests.iter().map(|r| r.shape()[0]).sum();
    let data = requests.iter().flat_map(|r| r.data().iter().copied()).collect();
    Tensor::from_vec(data, &shape)
}

/// A reply kept for checking: which model served which request, and
/// what it answered.
struct Kept {
    model: usize,
    request: Tensor,
    reply: Tensor,
}

/// Checks kept replies against the eager forward (bit for bit) and
/// against the exact-f32 forward (within [`MAX_REL_ERROR`]). Returns the
/// number of failed replies and whether every served model stayed within
/// the error bound.
fn verify(net: &Net, muls: &[ApproxFpMul], kept: &[Kept]) -> (u64, bool) {
    let mut eager = net.whole();
    let mut failed = 0u64;
    let mut within_bound = true;
    for (m, mul) in muls.iter().enumerate() {
        let (mut diff2, mut ref2) = (0.0f64, 0.0f64);
        for k in kept.iter().filter(|k| k.model == m).take(VERIFY_MAX) {
            let expect = eager.forward(&k.request, mul, false);
            if !same_bits(&expect, &k.reply) || k.reply.data().iter().any(|v| !v.is_finite()) {
                failed += 1;
            }
            let exact = eager.forward(&k.request, &ExactMul, false);
            for (&a, &e) in k.reply.data().iter().zip(exact.data()) {
                diff2 += (f64::from(a) - f64::from(e)).powi(2);
                ref2 += f64::from(e).powi(2);
            }
        }
        let rel = (diff2 / ref2.max(f64::MIN_POSITIVE)).sqrt();
        eprintln!("perfbench: model {m} relative error vs exact f32 = {rel:.4}");
        within_bound &= rel <= MAX_REL_ERROR && ref2 > 0.0;
    }
    (failed, within_bound)
}

fn run(args: &Args, traffic: Traffic) -> Report {
    let net = &traffic.net;
    let setup = || {
        let muls: Vec<ApproxFpMul> = traffic.models.iter().map(|&(f, _)| backend(f)).collect();
        let model = net.whole();
        for mul in &muls {
            std::hint::black_box(model.compile(mul));
        }
    };
    let setup_before = median_setup(setup);
    let muls: Vec<ApproxFpMul> = traffic.models.iter().map(|&(f, _)| backend(f)).collect();
    let model = net.whole();
    let compiled: Vec<CompiledModel<'_>> = muls.iter().map(|mul| model.compile(mul)).collect();
    let mut sessions: Vec<InferenceSession<'_, '_>> =
        compiled.iter().map(InferenceSession::new).collect();
    let bursts = schedule(&traffic, args.seed);

    let stages: Vec<Sequential> = if args.trace { net.stages() } else { Vec::new() };
    let staged: Vec<Vec<CompiledModel<'_>>> =
        muls.iter().map(|mul| stages.iter().map(|s| s.compile(mul)).collect()).collect();
    // A session over a model that only flattens: its flush is the
    // grouping, concatenation and scatter of the burst plus one copy.
    let flatten = Sequential::new().push(Flatten::new()).compile(&muls[0]);
    let mut batcher = InferenceSession::new(&flatten);
    let mut tracer = Tracer::new(args.trace);
    let mut kept = Vec::new();
    let mut failed = 0u64;
    let stats = closed_loop(args.seconds, 0, |i| {
        let root = tracer.begin("tick", None, i);
        let mut done = Tick { requests: 0, samples: 0 };
        for (m, requests) in bursts[i as usize % bursts.len()].iter().enumerate() {
            for r in requests {
                sessions[m].submit(r.clone());
            }
            let replies = if args.trace {
                // The traced run also serves the burst through one
                // compiled model per layer, a span around each, and
                // through `batcher`, whose flush is almost all the
                // session's own work. Ticks alternate which of the session
                // and the layer chain goes first, so each meets the caches
                // the other leaves equally often.
                let (mut replies, mut layered) = (None, None);
                for turn in [i % 2, 1 - i % 2] {
                    if turn == 0 {
                        replies = Some(sessions[m].flush());
                    } else {
                        let mut y = concat(requests);
                        for (spec, stage) in net.specs.iter().zip(&staged[m]) {
                            y = tracer.leaf(spec.fwd_span(), root, i, || stage.forward(&y));
                        }
                        layered = Some(y);
                    }
                }
                let (replies, layered) = (replies.expect("flushed"), layered.expect("run"));
                for r in requests {
                    batcher.submit(r.clone());
                }
                let flat = tracer.leaf("session.flush", root, i, || batcher.flush());
                let (flat, sent) = (concat(&flat), concat(requests));
                if !same_bits(&layered, &concat(&replies))
                    || flat.data().iter().zip(sent.data()).any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    failed += requests.len() as u64;
                }
                replies
            } else {
                sessions[m].flush()
            };
            if i % VERIFY_EVERY == 0 {
                for (request, reply) in requests.iter().zip(replies) {
                    kept.push(Kept { model: m, request: request.clone(), reply });
                }
            }
            done.requests += requests.len() as u64;
            done.samples += requests.iter().map(|r| r.shape()[0] as u64).sum::<u64>();
        }
        tracer.end(root);
        done
    });
    let metrics = if args.trace {
        tracer.write(args);
        let quiet = quiet_ticks(&stats);
        crate::per_layer(&tracer, net, &quiet, traffic.models.len() as f64, 0.0)
    } else {
        end_to_end(&stats, setup_before.min(median_setup(setup)))
    };
    let (verify_failed, within_bound) = verify(net, &muls, &kept);
    failed += verify_failed;
    Report { correct: failed == 0 && within_bound, attempted: stats.requests, failed, metrics }
}

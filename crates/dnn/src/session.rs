//! Compiled inference sessions: **compile once, serve many**.
//!
//! DAISM's inference story is static weights flowing through the
//! in-SRAM multiplier array, yet the eager layers re-derive every
//! weight-side operand on **every** forward call — decoded B tiles,
//! microkernel packed panels and BlockFp weight tiles are rebuilt per
//! request and thrown away. This module makes the weight-stationary
//! reuse explicit:
//!
//! * [`Sequential::compile`] walks a trained model once for one
//!   [`GemmBackend`] and snapshots each layer into its immutable serving
//!   form — `Dense` stores `Wᵀ` through [`GemmBackend::prepare_b`],
//!   `Conv2d` its kernel matrix through [`GemmBackend::prepare_a`],
//!   activations/pooling/reshapes compile to pure functions;
//! * [`CompiledModel::forward`] takes `&self`, owns per-call scratch,
//!   and is `Send + Sync` — one compiled session is safely shared
//!   across serving threads;
//! * [`InferenceSession`] micro-batches queued requests: same-shape
//!   requests are concatenated into one batched GEMM per layer (riding
//!   the whole-batch im2col lowering) and the per-request outputs
//!   scattered back — byte-identical to serving each request alone.
//!
//! # Bit-exactness
//!
//! `CompiledModel::forward` is **byte-identical** to the eager
//! `Sequential::forward(x, backend, false)` on the same backend — the
//! compiled layers run the same kernels over the same values, with only
//! the stored operand's conversion moved to compile time (enforced by
//! `tests/compiled_differential.rs`).
//!
//! # Staleness
//!
//! A compiled model is a *snapshot*: mutating the source model's
//! weights afterwards (an `sgd_step`, a manual edit) does **not**
//! propagate. The contract is detection + explicit rebuild:
//! [`CompiledModel::is_stale`] compares a fingerprint of the source
//! parameters against the one captured at compile time, and
//! [`CompiledModel::refresh`] re-snapshots the weights in place.

use crate::layers::{add_bias_rows, maxpool2x2, ConvGeom, Layer, Sequential};
use crate::tensor::Tensor;
use daism_core::{GemmBackend, PreparedA, PreparedB};

/// A compiled `Dense`: `y = x · Wᵀ + b` with `Wᵀ` (`[in, out]`) the
/// stored B operand.
#[derive(Debug)]
pub(crate) struct CompiledDense {
    pub(crate) bias: Vec<f32>,
    pub(crate) weights: PreparedB,
}

impl CompiledDense {
    fn forward(&self, x: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Dense expects [batch, features]");
        assert_eq!(x.shape()[1], self.weights.k(), "Dense input width mismatch");
        let batch = x.shape()[0];
        let mut y = Tensor::zeros(&[batch, self.weights.n()]);
        backend.gemm_prepared_b(x.data(), &self.weights, y.data_mut(), batch);
        add_bias_rows(&mut y, &self.bias);
        y
    }
}

/// A compiled `Conv2d`: the kernel matrix as the stored A operand and
/// **per-call** lowering scratch — serving through `&self` can never
/// touch an eager training layer's reused buffers.
#[derive(Debug)]
pub(crate) struct CompiledConv {
    pub(crate) geom: ConvGeom,
    pub(crate) bias: Vec<f32>,
    pub(crate) weights: PreparedA,
}

impl CompiledConv {
    fn forward(&self, x: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        assert_eq!(x.shape().len(), 4, "Conv2d expects [batch, ch, h, w]");
        assert_eq!(x.shape()[1], self.geom.in_ch, "Conv2d channel mismatch");
        let (batch, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.geom.out_hw(h, w);
        let bp = batch * oh * ow;

        // Same whole-batch lowering as the eager forward, into scratch
        // owned by *this call* — `&self` sharing across threads (or an
        // interleaved eager training step on the source layer) cannot
        // corrupt it.
        let mut cols = Vec::new();
        self.geom.lower_batch(x, &mut cols, None);
        let mut staged = vec![0.0f32; self.geom.out_ch * bp];
        backend.gemm_prepared_a(&self.weights, &cols, &mut staged, bp);
        self.geom.unstage_with_bias(&self.bias, &staged, batch, oh, ow)
    }
}

#[derive(Debug)]
enum CompiledKind {
    Dense(CompiledDense),
    Conv(CompiledConv),
    ReLU,
    MaxPool,
    Flatten,
    Residual(Vec<CompiledLayer>),
    Seq(Vec<CompiledLayer>),
}

/// One layer of a [`CompiledModel`]: an immutable serving snapshot
/// produced by [`Layer::compile_layer`]. Opaque — built through the
/// crate's layer implementations, consumed by `CompiledModel::forward`.
#[derive(Debug)]
pub struct CompiledLayer(CompiledKind);

impl CompiledLayer {
    pub(crate) fn dense(d: CompiledDense) -> Self {
        CompiledLayer(CompiledKind::Dense(d))
    }

    pub(crate) fn conv(c: CompiledConv) -> Self {
        CompiledLayer(CompiledKind::Conv(c))
    }

    pub(crate) fn relu() -> Self {
        CompiledLayer(CompiledKind::ReLU)
    }

    pub(crate) fn maxpool() -> Self {
        CompiledLayer(CompiledKind::MaxPool)
    }

    pub(crate) fn flatten() -> Self {
        CompiledLayer(CompiledKind::Flatten)
    }

    pub(crate) fn residual(inner: Vec<CompiledLayer>) -> Self {
        CompiledLayer(CompiledKind::Residual(inner))
    }

    pub(crate) fn seq(inner: Vec<CompiledLayer>) -> Self {
        CompiledLayer(CompiledKind::Seq(inner))
    }

    /// Does this layer (or any nested layer) stream a conv lowering as
    /// B? Its columns are different samples — see
    /// [`CompiledModel::batch_invariant`].
    fn has_conv(&self) -> bool {
        match &self.0 {
            CompiledKind::Conv(_) => true,
            CompiledKind::Residual(inner) | CompiledKind::Seq(inner) => {
                inner.iter().any(CompiledLayer::has_conv)
            }
            _ => false,
        }
    }

    fn forward(&self, x: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        match &self.0 {
            CompiledKind::Dense(d) => d.forward(x, backend),
            CompiledKind::Conv(c) => c.forward(x, backend),
            CompiledKind::ReLU => x.map(|v| v.max(0.0)),
            CompiledKind::MaxPool => maxpool2x2(x, None),
            CompiledKind::Flatten => {
                let batch = x.shape()[0];
                x.reshape(&[batch, x.len() / batch])
            }
            CompiledKind::Residual(inner) => {
                let mut y = x.clone();
                for layer in inner {
                    y = layer.forward(&y, backend);
                }
                assert_eq!(y.shape(), x.shape(), "Residual inner must preserve shape");
                y.add(x)
            }
            CompiledKind::Seq(inner) => {
                let mut y = x.clone();
                for layer in inner {
                    y = layer.forward(&y, backend);
                }
                y
            }
        }
    }
}

/// FNV-1a over every parameter's bits (values only — gradients and
/// momentum don't affect what a snapshot serves), plus a length mix per
/// parameter so reshapes can't alias.
fn params_fingerprint(model: &Sequential) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for p in model.params() {
        h ^= p.value.data().len() as u64;
        h = h.wrapping_mul(PRIME);
        for &v in p.value.data() {
            h ^= v.to_bits() as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// A model compiled for one backend: every layer an immutable snapshot
/// with its weight-side operand conversion already done, served through
/// `&self`. Built by [`Sequential::compile`], byte-identical to the
/// eager forward on the same backend, and a snapshot: see
/// [`is_stale`](Self::is_stale) and [`refresh`](Self::refresh).
///
/// # Examples
///
/// ```
/// use daism_core::{ApproxFpMul, MultiplierConfig};
/// use daism_dnn::{models, Tensor};
/// use daism_num::FpFormat;
///
/// let model = models::mlp(8, 16, 3, 1);
/// let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
/// let compiled = model.compile(&mul); // weights prepared once…
/// let x = Tensor::randn(&[1, 8], 1.0, 7);
/// let y = compiled.forward(&x); // …every request served from the cache
/// assert_eq!(y.shape(), &[1, 3]);
/// ```
#[derive(Debug)]
pub struct CompiledModel<'b> {
    backend: &'b dyn GemmBackend,
    layers: Vec<CompiledLayer>,
    fingerprint: u64,
    batch_invariant: bool,
}

/// Is a concatenated micro-batch byte-identical to per-request serving
/// for these layers on this backend? Shared by `build` and `refresh` so
/// a structural change can never leave the flag stale. Dense layers
/// stream samples as A rows, which every backend keeps independent; a
/// conv streams them as B columns, which a backend that quantizes B per
/// tile couples.
fn batch_invariant_of(backend: &dyn GemmBackend, layers: &[CompiledLayer]) -> bool {
    !backend.couples_b_columns() || !layers.iter().any(CompiledLayer::has_conv)
}

impl<'b> CompiledModel<'b> {
    fn build(model: &Sequential, backend: &'b dyn GemmBackend) -> Option<Self> {
        let layers = model.compile_chain(backend)?;
        let batch_invariant = batch_invariant_of(backend, &layers);
        Some(CompiledModel {
            backend,
            layers,
            fingerprint: params_fingerprint(model),
            batch_invariant,
        })
    }

    /// The backend this model was compiled for.
    pub fn backend(&self) -> &'b dyn GemmBackend {
        self.backend
    }

    /// `true` when a concatenated micro-batch is byte-identical to
    /// serving each request alone — always, except for convs on a
    /// backend that couples B columns (BlockFp: per-tile exponents
    /// couple batch neighbours).
    /// [`InferenceSession::flush`] consults this before concatenating.
    pub fn batch_invariant(&self) -> bool {
        self.batch_invariant
    }

    /// One inference forward through the compiled layers. Byte-identical
    /// to the eager model's inference forward on the same backend;
    /// `&self`, so one compiled model serves many threads.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        for layer in &self.layers {
            y = layer.forward(&y, self.backend);
        }
        y
    }

    /// `true` when `model`'s parameters no longer match the snapshot
    /// this compiled model captured — serving would silently use stale
    /// weights. Detection is by parameter fingerprint, so it costs one
    /// pass over the weights.
    pub fn is_stale(&self, model: &Sequential) -> bool {
        params_fingerprint(model) != self.fingerprint
    }

    /// Re-snapshots `model`'s current weights (same backend), clearing
    /// staleness. Cheaper to call than to reason about: it rebuilds
    /// only the prepared weight state, not the backend.
    ///
    /// # Panics
    ///
    /// Panics if `model` is no longer compilable (a layer without a
    /// compiled form was pushed since).
    pub fn refresh(&mut self, model: &Sequential) {
        self.layers =
            model.compile_chain(self.backend).expect("model no longer compilable on refresh");
        self.fingerprint = params_fingerprint(model);
        // The structure may have changed too (e.g. a conv pushed onto a
        // Dense-only BlockFp model) — recompute, don't carry over.
        self.batch_invariant = batch_invariant_of(self.backend, &self.layers);
    }
}

impl Sequential {
    /// Compiles the model for `backend`, or `None` if any layer lacks a
    /// compiled form. See [`CompiledModel`].
    pub fn try_compile<'b>(&self, backend: &'b dyn GemmBackend) -> Option<CompiledModel<'b>> {
        CompiledModel::build(self, backend)
    }

    /// Compiles the model for `backend` — a scalar multiplier or the
    /// BlockFp engine: every layer stores its weights in the backend's
    /// prepared form, once, and [`CompiledModel::forward`] serves
    /// requests against them — byte-identical to
    /// `forward(x, backend, false)`.
    ///
    /// # Panics
    ///
    /// Panics if a layer has no compiled form (custom layers keep the
    /// [`Layer::compile_layer`] default); use
    /// [`try_compile`](Self::try_compile) to fall back gracefully.
    pub fn compile<'b>(&self, backend: &'b dyn GemmBackend) -> CompiledModel<'b> {
        self.try_compile(backend).expect("model contains a layer without a compiled form")
    }
}

/// A micro-batching request queue over a shared [`CompiledModel`]:
/// [`submit`](Self::submit) enqueues requests,
/// [`flush`](Self::flush) serves them — same-shape requests
/// concatenated into **one** batched forward (one GEMM per layer, the
/// whole-batch im2col lowering doing the heavy lifting for convs) and
/// the per-request outputs scattered back in submission order.
///
/// Byte-identical to serving each request alone: GEMMs keep A rows
/// independent, and models where concatenation *would* change bits
/// (BlockFp + conv — see [`CompiledModel::batch_invariant`]) are served
/// per request automatically.
#[derive(Debug)]
pub struct InferenceSession<'m, 'b> {
    model: &'m CompiledModel<'b>,
    queue: Vec<Tensor>,
}

impl<'m, 'b> InferenceSession<'m, 'b> {
    /// A fresh queue over `model`.
    pub fn new(model: &'m CompiledModel<'b>) -> Self {
        InferenceSession { model, queue: Vec::new() }
    }

    /// Enqueues one request (leading dimension = samples in the
    /// request), returning its index into [`flush`](Self::flush)'s
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no dimensions.
    pub fn submit(&mut self, x: Tensor) -> usize {
        assert!(!x.shape().is_empty(), "requests need a leading batch dimension");
        self.queue.push(x);
        self.queue.len() - 1
    }

    /// Number of queued requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Serves every queued request, returning outputs in submission
    /// order and leaving the queue empty.
    pub fn flush(&mut self) -> Vec<Tensor> {
        let requests = std::mem::take(&mut self.queue);
        if requests.len() <= 1 || !self.model.batch_invariant() {
            return requests.iter().map(|x| self.model.forward(x)).collect();
        }
        // Group by per-sample shape (requests of different geometry
        // can't share a GEMM), concatenate each group along the batch
        // dimension, forward once, scatter rows back per request.
        let mut outputs: Vec<Option<Tensor>> = (0..requests.len()).map(|_| None).collect();
        let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for (i, x) in requests.iter().enumerate() {
            let tail = x.shape()[1..].to_vec();
            match groups.iter_mut().find(|(t, _)| *t == tail) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((tail, vec![i])),
            }
        }
        for (tail, idxs) in groups {
            let total: usize = idxs.iter().map(|&i| requests[i].shape()[0]).sum();
            let mut shape = Vec::with_capacity(tail.len() + 1);
            shape.push(total);
            shape.extend_from_slice(&tail);
            let mut data = Vec::with_capacity(
                requests[idxs[0]].len() / requests[idxs[0]].shape()[0].max(1) * total,
            );
            for &i in &idxs {
                data.extend_from_slice(requests[i].data());
            }
            let batched = Tensor::from_vec(data, &shape);
            let y = self.model.forward(&batched);
            let per_sample = y.len().checked_div(total).unwrap_or(0);
            let out_tail = y.shape()[1..].to_vec();
            let mut row = 0usize;
            for &i in &idxs {
                let rows = requests[i].shape()[0];
                let mut out_shape = Vec::with_capacity(out_tail.len() + 1);
                out_shape.push(rows);
                out_shape.extend_from_slice(&out_tail);
                let slice = y.data()[row * per_sample..(row + rows) * per_sample].to_vec();
                outputs[i] = Some(Tensor::from_vec(slice, &out_shape));
                row += rows;
            }
        }
        outputs.into_iter().map(|o| o.expect("every request served")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use daism_core::{ApproxFpMul, ExactMul, MultiplierConfig};
    use daism_num::FpFormat;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_model_is_send_sync() {
        assert_send_sync::<CompiledModel<'_>>();
        assert_send_sync::<InferenceSession<'_, '_>>();
    }

    #[test]
    fn compile_matches_eager_forward_mlp() {
        let mut model = models::mlp(6, 10, 4, 1);
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let compiled = model.compile(&mul);
        for seed in 0..3 {
            let x = Tensor::randn(&[3, 6], 1.0, 40 + seed);
            let eager = model.forward(&x, &mul, false);
            let served = compiled.forward(&x);
            assert_eq!(eager.shape(), served.shape());
            for (a, b) in eager.data().iter().zip(served.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "compiled diverged from eager");
            }
        }
    }

    #[test]
    fn staleness_detection_and_refresh() {
        let mut model = models::mlp(4, 6, 2, 1);
        let mul = ExactMul;
        let mut compiled = model.compile(&mul);
        assert!(!compiled.is_stale(&model));
        // Mutate a weight: the snapshot must report stale and, after
        // refresh, serve the new weights bit-identically again.
        model.params_mut()[0].value.data_mut()[0] += 1.0;
        assert!(compiled.is_stale(&model));
        compiled.refresh(&model);
        assert!(!compiled.is_stale(&model));
        let x = Tensor::randn(&[2, 4], 1.0, 3);
        let eager = model.forward(&x, &mul, false);
        for (a, b) in eager.data().iter().zip(compiled.forward(&x).data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn session_micro_batch_equals_per_request() {
        let model = models::mlp(5, 8, 3, 1);
        let mul = ApproxFpMul::new(MultiplierConfig::PC2_TR, FpFormat::BF16);
        let compiled = model.compile(&mul);
        let mut session = InferenceSession::new(&compiled);
        let requests: Vec<Tensor> =
            (0..4).map(|s| Tensor::randn(&[1 + s % 3, 5], 1.0, 60 + s as u64)).collect();
        for x in &requests {
            session.submit(x.clone());
        }
        assert_eq!(session.pending(), 4);
        let outs = session.flush();
        assert_eq!(session.pending(), 0);
        for (x, y) in requests.iter().zip(&outs) {
            let solo = compiled.forward(x);
            assert_eq!(solo.shape(), y.shape());
            for (a, b) in solo.data().iter().zip(y.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "micro-batched output diverged");
            }
        }
    }

    #[test]
    fn blockfp_conv_models_serve_per_request() {
        use daism_core::BlockFpGemm;
        let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 9);
        let conv_model = models::mini_vgg(4, 2);
        let compiled = conv_model.compile(&engine);
        assert!(!compiled.batch_invariant());
        let dense_model = models::mlp(4, 6, 2, 1);
        let compiled_dense = dense_model.compile(&engine);
        assert!(compiled_dense.batch_invariant());
        // Scalar multipliers keep every column independent.
        assert!(conv_model.compile(&ExactMul).batch_invariant());
    }
}

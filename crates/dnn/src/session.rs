//! Compiled layers and inference sessions: **compile once, serve
//! many**.
//!
//! DAISM's inference story is static weights flowing through the
//! in-SRAM multiplier array. A [`CompiledLayer`] holds one layer's
//! weights in the backend's stored-operand form — decoded B tiles,
//! microkernel packed panels, BlockFp weight tiles — and runs the one
//! forward that layer has: [`Layer::forward`] compiles the layer from
//! its current weights and runs it (a training forward also keeps what
//! backward needs), so a plain forward pays the weight conversion on
//! every call. This module makes the weight-stationary reuse explicit:
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
//! `CompiledModel::forward` is **byte-identical** to
//! `Sequential::forward(x, backend, false)` on the same weights and
//! backend, because both run these compiled layers. Both are in turn
//! byte-identical to a reference that feeds the raw weights to
//! [`GemmBackend::gemm`]: the stored-operand GEMMs
//! (`gemm_prepared_a` / `gemm_prepared_b`) run the same kernels over
//! the same values, with only the stored operand's conversion moved to
//! compile time (enforced by `tests/compiled_differential.rs`).
//!
//! # Staleness
//!
//! A compiled model is a *snapshot*: mutating the source model's
//! weights afterwards (an `sgd_step`, a manual edit) does **not**
//! propagate. The contract is detection + explicit rebuild:
//! [`CompiledModel::is_stale`] compares a fingerprint of the source
//! parameters against the one captured at compile time, and
//! [`CompiledModel::refresh`] re-snapshots the weights in place.

use crate::layers::{maxpool2x2, ConvGeom, Layer, Sequential};
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
    /// `x` is `[batch, k]` (checked by [`CompiledLayer::forward`]).
    fn forward(&self, x: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        let (batch, out) = (x.shape()[0], self.weights.n());
        let mut y = Tensor::zeros(&[batch, out]);
        backend.gemm_prepared_b(x.data(), &self.weights, y.data_mut(), batch);
        for row in y.data_mut().chunks_exact_mut(out) {
            for (v, &b) in row.iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        y
    }
}

/// A compiled `Conv2d`: the kernel matrix as the stored A operand and
/// **per-call** lowering scratch — serving through `&self` never
/// touches a training layer's buffers.
#[derive(Debug)]
pub(crate) struct CompiledConv {
    pub(crate) geom: ConvGeom,
    pub(crate) bias: Vec<f32>,
    pub(crate) weights: PreparedA,
}

impl CompiledConv {
    /// `x` is `[batch, in_ch, h, w]` with the kernel's reach inside the
    /// padded input (checked by [`CompiledLayer::forward`]). `cols_t`,
    /// when given, receives the transposed lowering from the same walk.
    fn forward(
        &self,
        x: &Tensor,
        backend: &dyn GemmBackend,
        cols_t: Option<&mut Vec<f32>>,
    ) -> Tensor {
        let (batch, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.geom.out_hw(h, w);
        let bp = batch * oh * ow;

        // The whole-batch lowering, into scratch owned by *this call* —
        // `&self` sharing across threads cannot corrupt it.
        let mut cols = Vec::new();
        self.geom.lower_batch(x, &mut cols, cols_t);
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
/// produced by [`Layer::compile_layer`], and the one forward the
/// built-in layers have. Opaque — built through the crate's layer
/// implementations, run by `CompiledModel::forward` and by each
/// built-in layer's own [`Layer::forward`].
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

    /// The per-sample output shape for a per-sample input shape
    /// `sample` (the input shape without its batch dimension), or why
    /// this layer cannot take it. The one statement of what a compiled
    /// layer accepts: [`forward`](Self::forward) runs it before the
    /// layer, and [`InferenceSession::try_submit`] walks it over the
    /// whole model.
    fn sample_shape(&self, sample: &[usize]) -> Result<Vec<usize>, String> {
        match &self.0 {
            CompiledKind::Dense(d) => match sample {
                [k] if *k == d.weights.k() => Ok(vec![d.weights.n()]),
                _ => Err(format!("Dense expects [{}] per sample", d.weights.k())),
            },
            CompiledKind::Conv(c) => {
                let g = &c.geom;
                let fits = |d: usize| d + 2 * g.padding >= g.kernel;
                match sample {
                    &[ch, h, w] if ch == g.in_ch && fits(h) && fits(w) => {
                        let (oh, ow) = g.out_hw(h, w);
                        Ok(vec![g.out_ch, oh, ow])
                    }
                    _ => Err(format!(
                        "Conv2d expects [{}, h, w] per sample with h, w >= {}",
                        g.in_ch,
                        g.kernel.saturating_sub(2 * g.padding)
                    )),
                }
            }
            CompiledKind::ReLU => Ok(sample.to_vec()),
            CompiledKind::MaxPool => match sample {
                &[ch, h, w] if h % 2 == 0 && w % 2 == 0 => Ok(vec![ch, h / 2, w / 2]),
                _ => Err("MaxPool2d expects [ch, h, w] per sample with even h, w".into()),
            },
            CompiledKind::Flatten => Ok(vec![sample.iter().product()]),
            CompiledKind::Residual(inner) => {
                let out = sample_shape_of(inner, sample)?;
                if out == sample {
                    Ok(out)
                } else {
                    Err(format!("Residual inner maps {sample:?} to {out:?}"))
                }
            }
            CompiledKind::Seq(inner) => sample_shape_of(inner, sample),
        }
    }

    /// Runs the layer on `x` after checking `x`'s per-sample shape with
    /// [`sample_shape`](Self::sample_shape), and asserts that the output
    /// has the shape it predicts. A training forward passes `tape`: a
    /// conv fills it with its transposed lowering
    /// `[batch·oh·ow, in_ch·k·k]`, which backward's weight-gradient GEMM
    /// reads; every other layer leaves it untouched.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no batch dimension or the layer cannot take
    /// its per-sample shape.
    pub(crate) fn forward(
        &self,
        x: &Tensor,
        backend: &dyn GemmBackend,
        tape: Option<&mut Vec<f32>>,
    ) -> Tensor {
        let (&batch, sample) = x.shape().split_first().expect("inputs need a batch dimension");
        let out = self.sample_shape(sample).unwrap_or_else(|why| panic!("{why}, got {sample:?}"));
        let y = match &self.0 {
            CompiledKind::Dense(d) => d.forward(x, backend),
            CompiledKind::Conv(c) => c.forward(x, backend, tape),
            CompiledKind::ReLU => x.map(|v| v.max(0.0)),
            CompiledKind::MaxPool => maxpool2x2(x, None),
            CompiledKind::Flatten => x.reshape(&[batch, out[0]]),
            CompiledKind::Residual(inner) => {
                let mut y = x.clone();
                for layer in inner {
                    y = layer.forward(&y, backend, None);
                }
                y.add(x)
            }
            CompiledKind::Seq(inner) => {
                let mut y = x.clone();
                for layer in inner {
                    y = layer.forward(&y, backend, None);
                }
                y
            }
        };
        assert!(
            y.shape().split_first() == Some((&batch, &out[..])),
            "{sample:?} served as {:?}, predicted {out:?}",
            &y.shape()[1..]
        );
        y
    }
}

/// The per-sample output shape of a layer chain (see
/// [`CompiledLayer::sample_shape`]).
fn sample_shape_of(layers: &[CompiledLayer], sample: &[usize]) -> Result<Vec<usize>, String> {
    layers.iter().try_fold(sample.to_vec(), |shape, layer| {
        layer.sample_shape(&shape).map_err(|why| format!("{why}, got {shape:?}"))
    })
}

/// A request a [`CompiledModel`] cannot serve: its per-sample shape
/// does not fit the compiled layers. Returned by
/// [`InferenceSession::try_submit`] before the request is queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestShapeError {
    /// The rejected request's shape.
    pub shape: Vec<usize>,
    /// Where the shape walk over the compiled layers stopped, and why.
    pub reason: String,
}

impl std::fmt::Display for RequestShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request of shape {:?} rejected: {}", self.shape, self.reason)
    }
}

impl std::error::Error for RequestShapeError {}

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
/// model's own forward on the same backend, and a snapshot: see
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
    /// to the source model's inference forward on the same backend;
    /// `&self`, so one compiled model serves many threads.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        for layer in &self.layers {
            y = layer.forward(&y, self.backend, None);
        }
        y
    }

    /// The per-sample output shape this model serves for a request of
    /// shape `shape` (leading dimension = samples), or why it cannot
    /// serve it: a walk over the compiled layers' input checks (conv
    /// channels and kernel reach, pooling parity, Dense width).
    fn output_sample_shape(&self, shape: &[usize]) -> Result<Vec<usize>, RequestShapeError> {
        let reject = |reason: String| RequestShapeError { shape: shape.to_vec(), reason };
        match shape.split_first() {
            None => Err(reject("requests need a leading batch dimension".into())),
            Some((_, sample)) => sample_shape_of(&self.layers, sample).map_err(reject),
        }
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
    /// output, or an error — leaving the queue untouched — when the
    /// compiled model cannot serve its per-sample shape. The check walks
    /// the shape through the compiled layers' input checks (conv
    /// channels and kernel reach, pooling parity, Dense width), so a
    /// malformed request never reaches the micro-batch it would share
    /// with valid ones.
    pub fn try_submit(&mut self, x: Tensor) -> Result<usize, RequestShapeError> {
        self.model.output_sample_shape(x.shape())?;
        self.queue.push(x);
        Ok(self.queue.len() - 1)
    }

    /// [`try_submit`](Self::try_submit) for requests known to be
    /// well-formed.
    ///
    /// # Panics
    ///
    /// Panics here, at the submit site, with the
    /// [`RequestShapeError`], if the model cannot serve `x`'s shape.
    pub fn submit(&mut self, x: Tensor) -> usize {
        self.try_submit(x).unwrap_or_else(|e| panic!("{e}"))
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

    /// `models::mlp`'s inference forward through [`GemmBackend::gemm`] on
    /// the raw weights: the second path the compiled layers are checked
    /// against.
    fn mlp_reference(model: &Sequential, x: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        let mut y = x.clone();
        for (i, wb) in model.params().chunks(2).enumerate() {
            if i > 0 {
                y = y.map(|v| v.max(0.0));
            }
            let (w, b) = (&wb[0].value, &wb[1].value);
            let (out, inp, batch) = (w.shape()[0], w.shape()[1], y.shape()[0]);
            let wt: Vec<f32> =
                (0..inp * out).map(|j| w.data()[(j % out) * inp + j / out]).collect();
            let mut z = Tensor::zeros(&[batch, out]);
            backend.gemm(y.data(), &wt, z.data_mut(), batch, inp, out);
            for row in z.data_mut().chunks_exact_mut(out) {
                for (v, bias) in row.iter_mut().zip(b.data()) {
                    *v += bias;
                }
            }
            y = z;
        }
        y
    }

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
            let reference = mlp_reference(&model, &x, &mul);
            let served = compiled.forward(&x);
            let eager = model.forward(&x, &mul, false);
            assert_eq!(reference.shape(), served.shape());
            assert_eq!(reference.shape(), eager.shape());
            for ((r, s), e) in reference.data().iter().zip(served.data()).zip(eager.data()) {
                assert_eq!(r.to_bits(), s.to_bits(), "compiled diverged from the reference");
                assert_eq!(r.to_bits(), e.to_bits(), "forward diverged from the reference");
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
        let reference = mlp_reference(&model, &x, &mul);
        for (a, b) in reference.data().iter().zip(compiled.forward(&x).data()) {
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
    fn malformed_requests_are_rejected_before_the_micro_batch() {
        // mini_vgg(8): conv(1→8) pool conv(8→16) pool flatten Dense(64).
        let model = models::mini_vgg(8, 3);
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16);
        let compiled = model.compile(&mul);
        assert_eq!(compiled.output_sample_shape(&[2, 1, 8, 8]), Ok(vec![3]));
        for bad in [&[2, 3, 8, 8][..], &[2, 1, 6, 8], &[2, 1, 7, 8], &[2, 64], &[2, 1, 8]] {
            let err = compiled.output_sample_shape(bad).expect_err("malformed shape");
            assert_eq!(err.shape, bad, "{err}");
        }
        // Valid requests queued around a rejected one flush to the same
        // bits as when served alone.
        let requests: Vec<Tensor> =
            (0..3).map(|s| Tensor::randn(&[1 + s, 1, 8, 8], 1.0, 80 + s as u64)).collect();
        let mut session = InferenceSession::new(&compiled);
        assert_eq!(session.try_submit(requests[0].clone()), Ok(0));
        let bad = Tensor::randn(&[1, 2, 8, 8], 1.0, 90);
        let err = session.try_submit(bad).expect_err("two input channels");
        assert!(err.reason.contains("Conv2d"), "{err}");
        assert_eq!(session.pending(), 1);
        assert_eq!(session.try_submit(requests[1].clone()), Ok(1));
        assert_eq!(session.submit(requests[2].clone()), 2);
        let outs = session.flush();
        assert_eq!(outs.len(), 3);
        for (x, y) in requests.iter().zip(&outs) {
            let solo = compiled.forward(x);
            assert_eq!(solo.shape(), y.shape());
            for (a, b) in solo.data().iter().zip(y.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "micro-batched output diverged");
            }
        }
    }

    #[test]
    fn every_shape_the_walk_accepts_serves_as_predicted() {
        // `try_submit`'s walk and the compiled forwards check shapes with
        // the same rule: every per-sample shape the walk accepts serves,
        // with the output shape it predicts.
        let samples = (1..=8).map(|k| vec![k]).chain(
            (1..=2)
                .flat_map(|ch| (1..=16).flat_map(move |h| (1..=16).map(move |w| vec![ch, h, w]))),
        );
        let samples: Vec<Vec<usize>> = samples.collect();
        for model in [models::mlp(5, 8, 3, 1), models::mini_vgg(8, 3), models::tiny_resnet(8, 3)] {
            let compiled = model.compile(&ExactMul);
            let mut accepted = 0;
            for sample in &samples {
                let shape = [&[2][..], sample].concat();
                if let Ok(out) = compiled.output_sample_shape(&shape) {
                    let y = compiled.forward(&Tensor::randn(&shape, 1.0, 5));
                    assert_eq!(y.shape(), [&[2][..], &out].concat(), "served {shape:?}");
                    accepted += 1;
                }
            }
            assert!(accepted > 0, "the walk accepts the model's own input shape");
        }
    }

    #[test]
    #[should_panic(expected = "rejected: Dense expects [5] per sample")]
    fn submit_panics_at_the_submit_site() {
        let model = models::mlp(5, 8, 3, 1);
        let compiled = model.compile(&ExactMul);
        InferenceSession::new(&compiled).submit(Tensor::randn(&[2, 4], 1.0, 1));
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

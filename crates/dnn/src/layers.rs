use crate::session::{checked_forward, CompiledConv, CompiledDense, CompiledLayer};
use crate::tensor::Tensor;
use daism_core::GemmBackend;
use std::cell::Cell;
use std::ops::Range;

/// A trainable parameter: value, gradient accumulator and SGD momentum
/// buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the last backward pass.
    pub grad: Tensor,
    /// Momentum buffer (owned here so the optimiser can stay stateless).
    pub velocity: Tensor,
}

impl Param {
    /// Wraps an initial value with zeroed gradient/momentum.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        let velocity = Tensor::zeros(value.shape());
        Param { value, grad, velocity }
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }
}

/// A differentiable layer. Every matrix product in `forward` *and*
/// `backward` runs on the given [`GemmBackend`] — a scalar multiplier
/// (exact or approximate) or the block-floating-point engine — so
/// networks can be trained and evaluated on any datapath.
pub trait Layer {
    /// Forward pass; caches whatever `backward` will need when
    /// `training`. The built-in layers compile themselves from their
    /// current weights ([`compile_layer`](Self::compile_layer)) and run
    /// the compiled form (a `Conv2d` runs the same conv forward over its
    /// own weights, uncopied; a training max-pool runs the same walk with
    /// its argmax recorded), so a forward computes the same bits as a
    /// [`CompiledModel`](crate::CompiledModel) built from the same
    /// weights.
    fn forward(&mut self, x: &Tensor, backend: &dyn GemmBackend, training: bool) -> Tensor;

    /// Backward pass: consumes the gradient w.r.t. this layer's output,
    /// accumulates parameter gradients, returns the gradient w.r.t. the
    /// input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad: &Tensor, backend: &dyn GemmBackend) -> Tensor;

    /// Mutable access to the layer's parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to the layer's parameters (empty by default) —
    /// what the compiled-session staleness fingerprint hashes.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Compiles this layer into its immutable serving form for
    /// `backend` — an owned snapshot of the weights, with a stored B
    /// operand's conversion (tile decode, microkernel packing, BlockFp
    /// quantization) already done where the layer has one (`Dense`'s
    /// `Wᵀ`; a conv's kernel matrix is the GEMM's A and stays a copy),
    /// served through `&self` so one compiled model can be shared across
    /// threads (see [`CompiledModel`](crate::CompiledModel)).
    fn compile_layer(&self, backend: &dyn GemmBackend) -> CompiledLayer;

    /// Layer name for summaries.
    fn name(&self) -> String;
}

/// The transpose of the row-major `rows × cols` matrix `src`, as a
/// fresh `cols × rows` buffer.
fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = src[r * cols + c];
        }
    }
    t
}

// -------------------------------------------------------------------
// Dense
// -------------------------------------------------------------------

/// Fully-connected layer: `y = x · Wᵀ + b` over `[batch, features]`.
#[derive(Debug)]
pub struct Dense {
    w: Param,
    b: Param,
    in_features: usize,
    out_features: usize,
    cache_x: Option<Tensor>,
}

impl Dense {
    /// Kaiming-normal initialised layer.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        Dense {
            w: Param::new(Tensor::randn(&[out_features, in_features], std, seed)),
            b: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cache_x: None,
        }
    }

    fn compiled(&self, backend: &dyn GemmBackend) -> CompiledLayer {
        // Dense multiplies Wᵀ from the right: the weights are the stored
        // B operand, so the whole per-request conversion (tile decode /
        // microkernel packing / BlockFp tile quantization) is hoisted
        // into the snapshot.
        let wt = transpose(self.w.value.data(), self.out_features, self.in_features);
        CompiledLayer::dense(CompiledDense {
            bias: self.b.value.data().to_vec(),
            weights: backend.prepare_b(&wt, self.in_features, self.out_features),
        })
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, backend: &dyn GemmBackend, training: bool) -> Tensor {
        let y = self.compiled(backend).forward(x, backend);
        if training {
            self.cache_x = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        let x = self.cache_x.as_ref().expect("Dense::backward before forward");
        let batch = x.shape()[0];
        // grad_w[o,i] += sum_n grad[n,o] * x[n,i]  (gradᵀ · x)
        let gt = transpose(grad.data(), batch, self.out_features);
        backend.gemm(
            &gt,
            x.data(),
            self.w.grad.data_mut(),
            self.out_features,
            batch,
            self.in_features,
        );
        // grad_b[o] += sum_n grad[n,o]
        for n in 0..batch {
            for o in 0..self.out_features {
                self.b.grad.data_mut()[o] += grad[(n, o)];
            }
        }
        // grad_x = grad · W  ([batch,out]·[out,in])
        let mut gx = Tensor::zeros(&[batch, self.in_features]);
        backend.gemm(
            grad.data(),
            self.w.value.data(),
            gx.data_mut(),
            batch,
            self.out_features,
            self.in_features,
        );
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn compile_layer(&self, backend: &dyn GemmBackend) -> CompiledLayer {
        self.compiled(backend)
    }

    fn name(&self) -> String {
        format!("Dense({}->{})", self.in_features, self.out_features)
    }
}

// -------------------------------------------------------------------
// Conv2d
// -------------------------------------------------------------------

/// The geometry of a conv lowering — shared by the [`Conv2d`] layer and
/// its compiled form, so the shape rule, the forward and the bounds /
/// padding / stride math exist exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeom {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

thread_local! {
    /// The calling thread's conv lowering buffers, `(cols, staged)`:
    /// [`ConvGeom::forward`] takes them for the call and puts them back at
    /// the end, so they stay at the largest conv the thread has run. A
    /// forward nested on the same thread finds them taken (empty) and
    /// grows buffers of its own.
    static LOWERING: Cell<(Vec<f32>, Vec<f32>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

impl ConvGeom {
    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.padding - self.kernel) / self.stride + 1,
            (w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }

    /// Rows of the lowered kernel matrix: `in_ch · k · k`.
    fn kdim(&self) -> usize {
        self.in_ch * self.kernel * self.kernel
    }

    /// The per-sample output shape for a per-sample input shape, or why
    /// a conv of this geometry cannot take it (the input must hold the
    /// kernel's reach inside its padding).
    pub(crate) fn sample_shape(&self, sample: &[usize]) -> Result<Vec<usize>, String> {
        let fits = |d: usize| d + 2 * self.padding >= self.kernel;
        match sample {
            &[ch, h, w] if ch == self.in_ch && fits(h) && fits(w) => {
                let (oh, ow) = self.out_hw(h, w);
                Ok(vec![self.out_ch, oh, ow])
            }
            _ => Err(format!(
                "Conv2d expects [{}, h, w] per sample with h, w >= {}",
                self.in_ch,
                self.kernel.saturating_sub(2 * self.padding)
            )),
        }
    }

    /// The one conv forward, over borrowed weights: `y = W · cols + b`
    /// for the `[out_ch, in_ch·k·k]` kernel matrix `weights` (the GEMM's
    /// A operand, which has no stored form). `x` is
    /// `[batch, in_ch, h, w]` and already passed
    /// [`sample_shape`](Self::sample_shape). `cols_t`, when given,
    /// receives the transposed lowering from the same walk.
    pub(crate) fn forward(
        &self,
        bias: &[f32],
        weights: &[f32],
        x: &Tensor,
        backend: &dyn GemmBackend,
        cols_t: Option<&mut Vec<f32>>,
    ) -> Tensor {
        let (batch, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.out_hw(h, w);
        let bp = batch * oh * ow;

        // The whole-batch lowering, into the calling thread's buffers —
        // taken for this call, so a compiled conv served from many
        // threads, or a forward nested on this one, never shares them.
        let (mut cols, mut staged) = LOWERING.take();
        self.lower_batch(x, &mut cols, cols_t);
        staged.clear();
        staged.resize(self.out_ch * bp, 0.0);
        backend.gemm(weights, &cols, &mut staged, self.out_ch, self.kdim(), bp);
        let y = self.unstage_with_bias(bias, &staged, batch, oh, ow);
        LOWERING.set((cols, staged));
        y
    }

    /// The output positions `o` in `0..out` whose input position
    /// `o·stride + k − padding`, for kernel offset `k`, lies in `0..len`:
    /// one contiguous range, so the lowering copies spans instead of
    /// testing both bounds per element.
    fn span(&self, k: usize, len: usize, out: usize) -> Range<usize> {
        // `o·stride + k >= padding`, and `o·stride + k − padding < len`.
        let lo = self.padding.saturating_sub(k).div_ceil(self.stride);
        let hi = match (len + self.padding).checked_sub(k + 1) {
            Some(last) => (last / self.stride + 1).min(out),
            None => 0,
        };
        lo.min(hi)..hi
    }

    /// The single lowering walk: always fills `cols` as
    /// `[in_ch·k·k, batch·oh·ow]` (sample-major columns, padding
    /// positions zero), and mirrors every element into the transposed
    /// `colst` when given one. Each (kernel row, output row) pair copies
    /// its valid output columns as one span.
    fn lower_batch(&self, x: &Tensor, cols: &mut Vec<f32>, colst: Option<&mut Vec<f32>>) {
        let (batch, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.out_hw(h, w);
        let p = oh * ow;
        let bp = batch * p;
        let (kk, s) = (self.kernel, self.stride);
        let rows = self.in_ch * kk * kk;
        cols.clear();
        cols.resize(rows * bp, 0.0);
        let mut colst = colst.map(|t| {
            t.clear();
            t.resize(bp * rows, 0.0);
            t.as_mut_slice()
        });
        let data = x.data();
        for n in 0..batch {
            for c in 0..self.in_ch {
                for ki in 0..kk {
                    for kj in 0..kk {
                        let row = (c * kk + ki) * kk + kj;
                        let js = self.span(kj, w, ow);
                        if js.is_empty() {
                            continue;
                        }
                        for oi in self.span(ki, h, oh) {
                            let src_i = oi * s + ki - self.padding;
                            let src = x.offset4(n, c, src_i, js.start * s + kj - self.padding);
                            let q0 = n * p + oi * ow + js.start;
                            let dst = &mut cols[row * bp + q0..row * bp + q0 + js.len()];
                            if s == 1 {
                                dst.copy_from_slice(&data[src..src + js.len()]);
                            } else {
                                for (d, &v) in dst.iter_mut().zip(data[src..].iter().step_by(s)) {
                                    *d = v;
                                }
                            }
                            if let Some(t) = colst.as_mut() {
                                for (q, &v) in (q0..).zip(dst.iter()) {
                                    t[q * rows + row] = v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Batched col2im: scatter-adds a `[in_ch·k·k, batch·oh·ow]`
    /// gradient back to image space for every sample, one span of valid
    /// output columns per (kernel row, output row) pair, in the lowering's
    /// order.
    fn col2im_batch(&self, cols: &[f32], gx: &mut Tensor) {
        let (batch, h, w) = (gx.shape()[0], gx.shape()[2], gx.shape()[3]);
        let (oh, ow) = self.out_hw(h, w);
        let p = oh * ow;
        let bp = batch * p;
        let (kk, s) = (self.kernel, self.stride);
        for n in 0..batch {
            for c in 0..self.in_ch {
                for ki in 0..kk {
                    for kj in 0..kk {
                        let row = (c * kk + ki) * kk + kj;
                        let js = self.span(kj, w, ow);
                        if js.is_empty() {
                            continue;
                        }
                        for oi in self.span(ki, h, oh) {
                            let src_i = oi * s + ki - self.padding;
                            let off = gx.offset4(n, c, src_i, js.start * s + kj - self.padding);
                            let q0 = row * bp + n * p + oi * ow + js.start;
                            let src = &cols[q0..q0 + js.len()];
                            let dst = gx.data_mut()[off..].iter_mut().step_by(s);
                            for (g, &v) in dst.zip(src) {
                                *g += v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Un-stages a `[out_ch, batch·oh·ow]` GEMM result into a
    /// `[batch, out_ch, oh, ow]` tensor, adding the channel bias.
    fn unstage_with_bias(
        &self,
        bias: &[f32],
        staged: &[f32],
        batch: usize,
        oh: usize,
        ow: usize,
    ) -> Tensor {
        let p = oh * ow;
        let bp = batch * p;
        let mut y = Tensor::zeros(&[batch, self.out_ch, oh, ow]);
        for n in 0..batch {
            for c in 0..self.out_ch {
                let b = bias[c];
                let src = &staged[c * bp + n * p..c * bp + (n + 1) * p];
                let dst =
                    &mut y.data_mut()[(n * self.out_ch + c) * p..(n * self.out_ch + c + 1) * p];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = s + b;
                }
            }
        }
        y
    }
}

/// 2-D convolution over `[batch, ch, h, w]`, lowered to a **batched**
/// im2col GEMM — exactly the lowering the DAISM accelerator executes
/// (each kernel matrix column becomes a wordline-group segment).
///
/// The whole batch is lowered into one `[in_ch·k·k, batch·oh·ow]`
/// column matrix, so forward and backward each run **one GEMM per
/// layer** instead of one per sample — feeding the engine tiles wide
/// enough for its decoded-tile pre-decode and the worker pool to pay
/// off. A training forward keeps the transposed lowering, from the same
/// walk, for backward's weight-gradient GEMM.
///
/// Results are bit-identical to the per-sample lowering: the batched
/// GEMM visits each output element's products in the same
/// ascending-(sample, position) order the per-sample loop did.
#[derive(Debug)]
pub struct Conv2d {
    w: Param,
    b: Param,
    geom: ConvGeom,
    /// The `[batch, in_ch, h, w]` shape of the last training input.
    in_shape: Option<[usize; 4]>,
    /// The transposed lowering of that input, `[batch·oh·ow, in_ch·k·k]`:
    /// written only by a training forward, read by backward.
    cols_t: Vec<f32>,
}

impl Conv2d {
    /// Kaiming-normal initialised convolution.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        let fan_in = (in_ch * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        Conv2d {
            w: Param::new(Tensor::randn(&[out_ch, in_ch * kernel * kernel], std, seed)),
            b: Param::new(Tensor::zeros(&[out_ch])),
            geom: ConvGeom { in_ch, out_ch, kernel, stride, padding },
            in_shape: None,
            cols_t: Vec::new(),
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, backend: &dyn GemmBackend, training: bool) -> Tensor {
        let geom = self.geom;
        let (bias, weights) = (self.b.value.data(), self.w.value.data());
        let cols_t = training.then_some(&mut self.cols_t);
        let y = checked_forward(
            x,
            |sample| geom.sample_shape(sample),
            |_, _| geom.forward(bias, weights, x, backend, cols_t),
        );
        if training {
            self.in_shape = Some(x.shape().try_into().expect("checked: [batch, in_ch, h, w]"));
        }
        y
    }

    fn backward(&mut self, grad: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        let in_shape = self.in_shape.expect("Conv2d::backward before forward");
        let geom = self.geom;
        let [batch, _, h, w] = in_shape;
        let (oh, ow) = geom.out_hw(h, w);
        let (out_ch, kdim) = (geom.out_ch, geom.kdim());
        let p = oh * ow;
        let bp = batch * p;

        // Gather the upstream gradient [batch, out_ch, p] into
        // sample-major rows g[out_ch × bp], matching the cols layout.
        let mut g = vec![0.0f32; out_ch * bp];
        for n in 0..batch {
            for c in 0..out_ch {
                let src = &grad.data()[(n * out_ch + c) * p..(n * out_ch + c + 1) * p];
                g[c * bp + n * p..c * bp + (n + 1) * p].copy_from_slice(src);
            }
        }

        // grad_w += g · colsᵀ — one GEMM over the whole batch, with the
        // transposed lowering the training forward kept. The k dimension
        // runs over (sample, position) in ascending order, exactly the
        // order the per-sample loop accumulated in.
        debug_assert_eq!(self.cols_t.len(), bp * kdim, "colsᵀ out of step with the cached input");
        backend.gemm(&g, &self.cols_t, self.w.grad.data_mut(), out_ch, bp, kdim);

        // grad_b += row sums of g, sample by sample (same partial-sum
        // order as the per-sample loop, so bits match).
        for n in 0..batch {
            for c in 0..out_ch {
                let sum: f32 = g[c * bp + n * p..c * bp + (n + 1) * p].iter().sum();
                self.b.grad.data_mut()[c] += sum;
            }
        }

        // grad_cols = Wᵀ · g — the second whole-batch GEMM.
        let wt = transpose(self.w.value.data(), out_ch, kdim);
        let mut grad_cols = vec![0.0f32; kdim * bp];
        backend.gemm(&wt, &g, &mut grad_cols, kdim, out_ch, bp);

        let mut gx = Tensor::zeros(&in_shape);
        geom.col2im_batch(&grad_cols, &mut gx);
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn compile_layer(&self, _backend: &dyn GemmBackend) -> CompiledLayer {
        // Conv2d multiplies the kernel matrix from the *left*: it is the
        // GEMM's A operand, which has no stored form, and the per-request
        // B operand is the im2col lowering of the input. The snapshot
        // holds a copy of the weights, so serving never re-reads the
        // layer.
        CompiledLayer::conv(CompiledConv {
            geom: self.geom,
            bias: self.b.value.data().to_vec(),
            weights: self.w.value.data().to_vec(),
        })
    }

    fn name(&self) -> String {
        let g = &self.geom;
        format!(
            "Conv2d({}->{}, {}x{}, s{}, p{})",
            g.in_ch, g.out_ch, g.kernel, g.kernel, g.stride, g.padding
        )
    }
}

// -------------------------------------------------------------------
// Activations / pooling / reshape
// -------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// A fresh ReLU.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, backend: &dyn GemmBackend, training: bool) -> Tensor {
        if training {
            self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        CompiledLayer::relu().forward(x, backend)
    }

    fn backward(&mut self, grad: &Tensor, _backend: &dyn GemmBackend) -> Tensor {
        let mask = self.mask.as_ref().expect("ReLU::backward before forward");
        let data = grad.data().iter().zip(mask).map(|(&g, &m)| if m { g } else { 0.0 }).collect();
        Tensor::from_vec(data, grad.shape())
    }

    fn compile_layer(&self, _backend: &dyn GemmBackend) -> CompiledLayer {
        CompiledLayer::relu()
    }

    fn name(&self) -> String {
        "ReLU".into()
    }
}

/// 2×2 max pooling with stride 2 over `[batch, ch, h, w]`.
#[derive(Debug, Default)]
pub struct MaxPool2d {
    argmax: Option<Vec<usize>>,
    in_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// A fresh 2×2/stride-2 pool.
    pub fn new() -> Self {
        MaxPool2d::default()
    }
}

/// The pure 2×2/stride-2 max-pool walk, shared by the layer's training
/// forward and the compiled form. `argmax`, when given, is resized and
/// filled with the winning input offsets (what backward needs); the
/// compiled form passes `None` so serving a request allocates nothing
/// beyond the pooled tensor.
///
/// # Panics
///
/// Panics if `x` is not `[batch, ch, h, w]` with even spatial dims.
pub(crate) fn maxpool2x2(x: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Tensor {
    assert_eq!(x.shape().len(), 4, "MaxPool2d expects [batch, ch, h, w]");
    let (batch, ch, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert!(h % 2 == 0 && w % 2 == 0, "MaxPool2d needs even spatial dims, got {h}x{w}");
    let (oh, ow) = (h / 2, w / 2);
    let mut y = Tensor::zeros(&[batch, ch, oh, ow]);
    if let Some(am) = argmax.as_deref_mut() {
        am.clear();
        am.resize(batch * ch * oh * ow, 0);
    }
    let mut oi = 0;
    for n in 0..batch {
        for c in 0..ch {
            for i in 0..oh {
                for j in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_off = 0;
                    for di in 0..2 {
                        for dj in 0..2 {
                            let off = x.offset4(n, c, 2 * i + di, 2 * j + dj);
                            if x.data()[off] > best {
                                best = x.data()[off];
                                best_off = off;
                            }
                        }
                    }
                    y.data_mut()[oi] = best;
                    if let Some(am) = argmax.as_deref_mut() {
                        am[oi] = best_off;
                    }
                    oi += 1;
                }
            }
        }
    }
    y
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, backend: &dyn GemmBackend, training: bool) -> Tensor {
        if !training {
            return CompiledLayer::maxpool().forward(x, backend);
        }
        let mut argmax = Vec::new();
        let y = maxpool2x2(x, Some(&mut argmax));
        self.argmax = Some(argmax);
        self.in_shape = Some(x.shape().to_vec());
        y
    }

    fn backward(&mut self, grad: &Tensor, _backend: &dyn GemmBackend) -> Tensor {
        let argmax = self.argmax.as_ref().expect("MaxPool2d::backward before forward");
        let shape = self.in_shape.as_ref().expect("MaxPool2d::backward before forward");
        let mut gx = Tensor::zeros(shape);
        for (g, &off) in grad.data().iter().zip(argmax) {
            gx.data_mut()[off] += g;
        }
        gx
    }

    fn compile_layer(&self, _backend: &dyn GemmBackend) -> CompiledLayer {
        CompiledLayer::maxpool()
    }

    fn name(&self) -> String {
        "MaxPool2d(2x2)".into()
    }
}

/// Flattens `[batch, …]` to `[batch, features]`.
#[derive(Debug, Default)]
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// A fresh flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, backend: &dyn GemmBackend, training: bool) -> Tensor {
        if training {
            self.in_shape = Some(x.shape().to_vec());
        }
        CompiledLayer::flatten().forward(x, backend)
    }

    fn backward(&mut self, grad: &Tensor, _backend: &dyn GemmBackend) -> Tensor {
        let shape = self.in_shape.as_ref().expect("Flatten::backward before forward");
        grad.reshape(shape)
    }

    fn compile_layer(&self, _backend: &dyn GemmBackend) -> CompiledLayer {
        CompiledLayer::flatten()
    }

    fn name(&self) -> String {
        "Flatten".into()
    }
}

// -------------------------------------------------------------------
// Containers
// -------------------------------------------------------------------

/// A residual block: `y = inner(x) + x` (shapes must match), the
/// skip-connection structure of the paper's ResNet-50 accuracy target.
pub struct Residual {
    inner: Sequential,
}

impl Residual {
    /// Wraps an inner chain whose output shape equals its input shape.
    pub fn new(inner: Sequential) -> Self {
        Residual { inner }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, backend: &dyn GemmBackend, training: bool) -> Tensor {
        let y = self.inner.forward(x, backend, training);
        assert_eq!(y.shape(), x.shape(), "Residual inner must preserve shape");
        y.add(x)
    }

    fn backward(&mut self, grad: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        let g_inner = self.inner.backward(grad, backend);
        g_inner.add(grad)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn compile_layer(&self, backend: &dyn GemmBackend) -> CompiledLayer {
        CompiledLayer::residual(self.inner.compile_chain(backend))
    }

    fn name(&self) -> String {
        format!("Residual[{}]", self.inner.name())
    }
}

/// An ordered chain of layers.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Compiles every layer of the chain — the shared walk behind
    /// [`Sequential::compile`](crate::Sequential::compile) and the
    /// container `compile_layer` implementations.
    pub(crate) fn compile_chain(&self, backend: &dyn GemmBackend) -> Vec<CompiledLayer> {
        self.layers.iter().map(|l| l.compile_layer(backend)).collect()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, backend: &dyn GemmBackend, training: bool) -> Tensor {
        // The first layer reads `x` itself; only an empty chain copies it.
        match self.layers.split_first_mut() {
            None => x.clone(),
            Some((first, rest)) => {
                rest.iter_mut().fold(first.forward(x, backend, training), |out, layer| {
                    layer.forward(&out, backend, training)
                })
            }
        }
    }

    fn backward(&mut self, grad: &Tensor, backend: &dyn GemmBackend) -> Tensor {
        // The last layer reads `grad` itself; only an empty chain copies it.
        match self.layers.split_last_mut() {
            None => grad.clone(),
            Some((last, rest)) => rest
                .iter_mut()
                .rev()
                .fold(last.backward(grad, backend), |g, layer| layer.backward(&g, backend)),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn compile_layer(&self, backend: &dyn GemmBackend) -> CompiledLayer {
        CompiledLayer::seq(self.compile_chain(backend))
    }

    fn name(&self) -> String {
        let names: Vec<String> = self.layers.iter().map(|l| l.name()).collect();
        names.join(" -> ")
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential[{}]", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daism_core::{BlockFpGemm, ExactMul};

    /// Finite-difference gradient check for a layer's parameters.
    fn grad_check(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let mul = ExactMul;
        // Loss = sum of outputs (so dL/dy = 1 everywhere).
        let y = layer.forward(x, &mul, true);
        let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape());
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let _ = layer.forward(x, &mul, true);
        let _gx = layer.backward(&ones, &mul);

        // Collect analytic grads first (param borrows end between loops).
        let analytic: Vec<Vec<f32>> =
            layer.params_mut().iter_mut().map(|p| p.grad.data().to_vec()).collect();

        let eps = 1e-2f32;
        let n_params = analytic.len();
        for pi in 0..n_params {
            let n_elems = analytic[pi].len().min(8); // spot-check a few
            #[allow(clippy::needless_range_loop)] // e also indexes params[pi]
            for e in 0..n_elems {
                let orig = {
                    let mut params = layer.params_mut();
                    let v = params[pi].value.data()[e];
                    params[pi].value.data_mut()[e] = v + eps;
                    v
                };
                let y_plus: f32 = layer.forward(x, &ExactMul, false).data().iter().sum();
                {
                    let mut params = layer.params_mut();
                    params[pi].value.data_mut()[e] = orig - eps;
                }
                let y_minus: f32 = layer.forward(x, &ExactMul, false).data().iter().sum();
                {
                    let mut params = layer.params_mut();
                    params[pi].value.data_mut()[e] = orig;
                }
                let numeric = (y_plus - y_minus) / (2.0 * eps);
                let a = analytic[pi][e];
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "param {pi} elem {e}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn dense_forward_matches_manual() {
        let mut d = Dense::new(2, 2, 1);
        d.w.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        d.b.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = d.forward(&x, &ExactMul, false);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn dense_gradients_check_out() {
        let mut d = Dense::new(3, 4, 7);
        let x = Tensor::randn(&[2, 3], 1.0, 11);
        grad_check(&mut d, &x, 2e-2);
    }

    #[test]
    fn conv_gradients_check_out() {
        let mut c = Conv2d::new(2, 3, 3, 1, 1, 5);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, 13);
        grad_check(&mut c, &x, 2e-2);
    }

    #[test]
    fn conv_input_gradient_check() {
        // Finite-difference check on dL/dx for the conv (col2im path).
        let mul = ExactMul;
        let mut c = Conv2d::new(1, 2, 3, 1, 1, 3);
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, 17);
        let y = c.forward(&x, &mul, true);
        let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape());
        let gx = c.backward(&ones, &mul);
        let eps = 1e-2f32;
        for e in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.data_mut()[e] += eps;
            let yp: f32 = c.forward(&xp, &mul, false).data().iter().sum();
            let mut xm = x.clone();
            xm.data_mut()[e] -= eps;
            let ym: f32 = c.forward(&xm, &mul, false).data().iter().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (gx.data()[e] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "elem {e}: {} vs {numeric}",
                gx.data()[e]
            );
        }
    }

    /// The pre-batching per-sample Conv2d lowering, kept verbatim as the
    /// semantic reference: forward and backward loop over samples, one
    /// GEMM each. The batched layer must match it bit-for-bit.
    mod per_sample_reference {
        use super::*;
        use daism_core::{gemm, ScalarMul};

        fn out_hw(c: &Conv2d, h: usize, w: usize) -> (usize, usize) {
            (
                (h + 2 * c.geom.padding - c.geom.kernel) / c.geom.stride + 1,
                (w + 2 * c.geom.padding - c.geom.kernel) / c.geom.stride + 1,
            )
        }

        fn im2col(layer: &Conv2d, x: &Tensor, n: usize) -> Vec<f32> {
            let (h, w) = (x.shape()[2], x.shape()[3]);
            let (oh, ow) = out_hw(layer, h, w);
            let kk = layer.geom.kernel;
            let rows = layer.geom.in_ch * kk * kk;
            let mut cols = vec![0.0f32; rows * oh * ow];
            for c in 0..layer.geom.in_ch {
                for ki in 0..kk {
                    for kj in 0..kk {
                        let row = (c * kk + ki) * kk + kj;
                        for oi in 0..oh {
                            let si = (oi * layer.geom.stride + ki) as isize
                                - layer.geom.padding as isize;
                            if si < 0 || si >= h as isize {
                                continue;
                            }
                            for oj in 0..ow {
                                let sj = (oj * layer.geom.stride + kj) as isize
                                    - layer.geom.padding as isize;
                                if sj < 0 || sj >= w as isize {
                                    continue;
                                }
                                cols[row * oh * ow + oi * ow + oj] =
                                    x.data()[x.offset4(n, c, si as usize, sj as usize)];
                            }
                        }
                    }
                }
            }
            cols
        }

        pub fn forward(layer: &Conv2d, x: &Tensor, mul: &dyn ScalarMul) -> Tensor {
            let (batch, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
            let (oh, ow) = out_hw(layer, h, w);
            let kdim = layer.geom.in_ch * layer.geom.kernel * layer.geom.kernel;
            let mut y = Tensor::zeros(&[batch, layer.geom.out_ch, oh, ow]);
            for n in 0..batch {
                let cols = im2col(layer, x, n);
                let off = n * layer.geom.out_ch * oh * ow;
                gemm(
                    mul,
                    layer.w.value.data(),
                    &cols,
                    &mut y.data_mut()[off..off + layer.geom.out_ch * oh * ow],
                    layer.geom.out_ch,
                    kdim,
                    oh * ow,
                );
                for c in 0..layer.geom.out_ch {
                    let b = layer.b.value.data()[c];
                    for v in &mut y.data_mut()[off + c * oh * ow..off + (c + 1) * oh * ow] {
                        *v += b;
                    }
                }
            }
            y
        }

        /// Returns `(grad_w, grad_b, grad_x)` accumulated from zero.
        pub fn backward(
            layer: &Conv2d,
            x: &Tensor,
            grad: &Tensor,
            mul: &dyn ScalarMul,
        ) -> (Vec<f32>, Vec<f32>, Tensor) {
            let (batch, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
            let (oh, ow) = out_hw(layer, h, w);
            let kdim = layer.geom.in_ch * layer.geom.kernel * layer.geom.kernel;
            let p = oh * ow;
            let mut gw = vec![0.0f32; layer.geom.out_ch * kdim];
            let mut gb = vec![0.0f32; layer.geom.out_ch];
            let mut gx = Tensor::zeros(x.shape());
            for n in 0..batch {
                let cols = im2col(layer, x, n);
                let g = &grad.data()[n * layer.geom.out_ch * p..(n + 1) * layer.geom.out_ch * p];
                let mut colst = vec![0.0f32; p * kdim];
                for r in 0..kdim {
                    for q in 0..p {
                        colst[q * kdim + r] = cols[r * p + q];
                    }
                }
                gemm(mul, g, &colst, &mut gw, layer.geom.out_ch, p, kdim);
                for c in 0..layer.geom.out_ch {
                    gb[c] += g[c * p..(c + 1) * p].iter().sum::<f32>();
                }
                let mut wt = vec![0.0f32; kdim * layer.geom.out_ch];
                for c in 0..layer.geom.out_ch {
                    for r in 0..kdim {
                        wt[r * layer.geom.out_ch + c] = layer.w.value.data()[c * kdim + r];
                    }
                }
                let mut gcols = vec![0.0f32; kdim * p];
                gemm(mul, &wt, g, &mut gcols, kdim, layer.geom.out_ch, p);
                // col2im scatter-add.
                let kk = layer.geom.kernel;
                for c in 0..layer.geom.in_ch {
                    for ki in 0..kk {
                        for kj in 0..kk {
                            let row = (c * kk + ki) * kk + kj;
                            for oi in 0..oh {
                                let si = (oi * layer.geom.stride + ki) as isize
                                    - layer.geom.padding as isize;
                                if si < 0 || si >= h as isize {
                                    continue;
                                }
                                for oj in 0..ow {
                                    let sj = (oj * layer.geom.stride + kj) as isize
                                        - layer.geom.padding as isize;
                                    if sj < 0 || sj >= w as isize {
                                        continue;
                                    }
                                    let off = gx.offset4(n, c, si as usize, sj as usize);
                                    gx.data_mut()[off] += gcols[row * p + oi * ow + oj];
                                }
                            }
                        }
                    }
                }
            }
            (gw, gb, gx)
        }
    }

    /// The batched (one-GEMM-per-layer) lowering must be bit-identical
    /// to the per-sample reference for forward, grad_w, grad_b and
    /// grad_x — under exact *and* approximate arithmetic, across
    /// stride/padding variants, over repeated iterations (scratch
    /// buffers are reused and must not leak state between calls).
    #[test]
    fn conv_batched_lowering_bit_matches_per_sample_reference() {
        use daism_core::{ApproxFpMul, MultiplierConfig};
        use daism_num::FpFormat;
        let backends: Vec<Box<dyn daism_core::ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)),
        ];
        // Spans of valid output columns: stride 2 with padding, a padding
        // wider than the kernel (whole output rows in the pad), and on a
        // one-column input, kernel columns whose span is empty (every
        // position in the pad, or past the input's last column).
        let geometries = [
            (3, 1, 1, 6, 6),
            (3, 2, 0, 6, 6),
            (2, 1, 1, 6, 6),
            (3, 2, 1, 6, 6),
            (1, 2, 2, 6, 6),
            (5, 1, 2, 4, 1),
            (1, 3, 1, 4, 1),
        ];
        for (kernel, stride, padding, h, w) in geometries {
            let mut layer = Conv2d::new(2, 3, kernel, stride, padding, 5);
            for iter in 0..3 {
                let x = Tensor::randn(&[3, 2, h, w], 1.0, 13 + iter);
                for mul in &backends {
                    let y = layer.forward(&x, mul.as_ref(), true);
                    let y_ref = per_sample_reference::forward(&layer, &x, mul.as_ref());
                    assert_eq!(y.shape(), y_ref.shape());
                    for (a, b) in y.data().iter().zip(y_ref.data()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "forward diverged");
                    }

                    let grad = Tensor::randn(y.shape(), 0.7, 99 + iter);
                    for p in layer.params_mut() {
                        p.zero_grad();
                    }
                    let gx = layer.backward(&grad, mul.as_ref());
                    let (gw_ref, gb_ref, gx_ref) =
                        per_sample_reference::backward(&layer, &x, &grad, mul.as_ref());
                    for (a, b) in layer.w.grad.data().iter().zip(&gw_ref) {
                        assert_eq!(a.to_bits(), b.to_bits(), "grad_w diverged");
                    }
                    for (a, b) in layer.b.grad.data().iter().zip(&gb_ref) {
                        assert_eq!(a.to_bits(), b.to_bits(), "grad_b diverged");
                    }
                    for (a, b) in gx.data().iter().zip(gx_ref.data()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "grad_x diverged");
                    }
                }
            }
        }
    }

    /// End-to-end training-step equivalence: one full
    /// forward/loss/backward/SGD step through a conv net, once with the
    /// batched (one-GEMM-per-layer) Conv2d and once routing the conv
    /// through the per-sample reference. Updated parameters must be
    /// bit-identical under exact and approximate arithmetic.
    #[test]
    fn conv_training_step_equivalence_batched_vs_per_sample() {
        use crate::train::softmax_cross_entropy;
        use daism_core::{ApproxFpMul, MultiplierConfig};
        use daism_num::FpFormat;

        let backends: Vec<Box<dyn daism_core::ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)),
        ];
        for mul in &backends {
            let mul = mul.as_ref();
            let x = Tensor::randn(&[2, 1, 4, 4], 1.0, 21);
            let labels = [0usize, 2];
            let lr = 0.05f32;

            // Batched path: conv -> relu -> flatten -> dense, manual step.
            let mut conv = Conv2d::new(1, 2, 3, 1, 1, 7);
            let mut relu = ReLU::new();
            let mut flat = Flatten::new();
            let mut dense = Dense::new(2 * 4 * 4, 3, 8);
            let h1 = conv.forward(&x, mul, true);
            let h2 = relu.forward(&h1, mul, true);
            let h3 = flat.forward(&h2, mul, true);
            let logits = dense.forward(&h3, mul, true);
            let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
            let g3 = dense.backward(&dlogits, mul);
            let g2 = flat.backward(&g3, mul);
            let g1 = relu.backward(&g2, mul);
            let _ = conv.backward(&g1, mul);
            let stepped_w: Vec<f32> = conv
                .w
                .value
                .data()
                .iter()
                .zip(conv.w.grad.data())
                .map(|(v, g)| v - lr * g)
                .collect();
            let stepped_b: Vec<f32> = conv
                .b
                .value
                .data()
                .iter()
                .zip(conv.b.grad.data())
                .map(|(v, g)| v - lr * g)
                .collect();

            // Reference path: identical seeds, conv via per-sample loops.
            let ref_conv = Conv2d::new(1, 2, 3, 1, 1, 7);
            let mut ref_relu = ReLU::new();
            let mut ref_flat = Flatten::new();
            let mut ref_dense = Dense::new(2 * 4 * 4, 3, 8);
            let r1 = per_sample_reference::forward(&ref_conv, &x, mul);
            let r2 = ref_relu.forward(&r1, mul, true);
            let r3 = ref_flat.forward(&r2, mul, true);
            let ref_logits = ref_dense.forward(&r3, mul, true);
            let (_, ref_dlogits) = softmax_cross_entropy(&ref_logits, &labels);
            let rg3 = ref_dense.backward(&ref_dlogits, mul);
            let rg2 = ref_flat.backward(&rg3, mul);
            let rg1 = ref_relu.backward(&rg2, mul);
            let (ref_gw, ref_gb, _) = per_sample_reference::backward(&ref_conv, &x, &rg1, mul);
            let ref_stepped_w: Vec<f32> =
                ref_conv.w.value.data().iter().zip(&ref_gw).map(|(v, g)| v - lr * g).collect();
            let ref_stepped_b: Vec<f32> =
                ref_conv.b.value.data().iter().zip(&ref_gb).map(|(v, g)| v - lr * g).collect();

            for (a, b) in stepped_w.iter().zip(&ref_stepped_w) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: stepped W diverged", mul.name());
            }
            for (a, b) in stepped_b.iter().zip(&ref_stepped_b) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: stepped b diverged", mul.name());
            }
        }
    }

    #[test]
    fn dense_forward_blockfp_close_to_exact() {
        use daism_core::MultiplierConfig;
        let mut d = Dense::new(6, 4, 3);
        let x = Tensor::randn(&[5, 6], 1.0, 19);
        let exact = d.forward(&x, &ExactMul, false);
        let engine = BlockFpGemm::new(MultiplierConfig::PC3, 16);
        let y = d.forward(&x, &engine, false);
        assert_eq!(y.shape(), exact.shape());
        let scale: f32 = exact.data().iter().map(|v| v.abs()).fold(0.0, f32::max);
        for (e, b) in exact.data().iter().zip(y.data()) {
            assert!((e - b).abs() < 0.10 * scale + 0.02, "{e} vs {b}");
        }
    }

    #[test]
    fn conv_forward_blockfp_bit_matches_engine_lowering() {
        use daism_core::MultiplierConfig;
        // An inference forward on the BlockFp engine must be exactly
        // engine.execute over the same whole-batch im2col lowering the
        // float forward uses, plus bias.
        let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 12);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, 5);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, 23);
        let y = c.forward(&x, &engine, false);

        let (batch, h, w) = (2usize, 5usize, 5usize);
        let (oh, ow) = c.geom.out_hw(h, w);
        let kdim = 2 * 3 * 3;
        let bp = batch * oh * ow;
        let mut cols = Vec::new();
        c.geom.lower_batch(&x, &mut cols, None);
        let mut staged = vec![0.0f32; 3 * bp];
        engine.execute(c.w.value.data(), &cols, &mut staged, 3, kdim, bp);
        let expect = c.geom.unstage_with_bias(c.b.value.data(), &staged, batch, oh, ow);
        assert_eq!(y.shape(), expect.shape());
        for (a, b) in y.data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "BlockFp forward diverged from lowering");
        }
    }

    #[test]
    fn conv_forward_blockfp_does_not_corrupt_training_scratch() {
        use daism_core::MultiplierConfig;
        // A BlockFp inference forward between a training forward and its
        // backward must not let backward consume the wrong lowering.
        let engine = BlockFpGemm::new(MultiplierConfig::PC3, 14);
        let mul = ExactMul;
        let x_train = Tensor::randn(&[2, 1, 4, 4], 1.0, 31);
        let x_other = Tensor::randn(&[2, 1, 4, 4], 1.0, 77);
        let grad_seed = 41;

        // Clean run: forward + backward, no interleaved inference.
        let mut clean = Conv2d::new(1, 2, 3, 1, 1, 9);
        let y = clean.forward(&x_train, &mul, true);
        let grad = Tensor::randn(y.shape(), 0.9, grad_seed);
        let gx_clean = clean.backward(&grad, &mul);

        // Interleaved run: a BlockFp forward on *different* data between
        // the training forward and backward.
        let mut mixed = Conv2d::new(1, 2, 3, 1, 1, 9);
        let _ = mixed.forward(&x_train, &mul, true);
        let _ = mixed.forward(&x_other, &engine, false);
        let gx_mixed = mixed.backward(&grad, &mul);

        for (a, b) in clean.w.grad.data().iter().zip(mixed.w.grad.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "grad_w corrupted by interleaved blockfp");
        }
        for (a, b) in gx_clean.data().iter().zip(gx_mixed.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "grad_x corrupted by interleaved blockfp");
        }
    }

    #[test]
    fn model_forward_blockfp_routes_every_layer() {
        use daism_core::MultiplierConfig;
        // A conv -> relu -> pool -> flatten -> dense chain (wrapped in a
        // Residual dense block) through the BlockFp engine: close to the
        // exact forward at high mantissa width, and non-GEMM layers keep
        // their exact semantics.
        let inner = Sequential::new().push(Dense::new(8, 8, 12));
        let mut model = Sequential::new()
            .push(Conv2d::new(1, 2, 3, 1, 1, 4))
            .push(ReLU::new())
            .push(MaxPool2d::new())
            .push(Flatten::new())
            .push(Dense::new(2 * 2 * 2, 8, 6))
            .push(Residual::new(inner));
        let x = Tensor::randn(&[3, 1, 4, 4], 1.0, 55);
        let exact = model.forward(&x, &ExactMul, false);
        let engine = BlockFpGemm::new(MultiplierConfig::PC3, 18);
        let y = model.forward(&x, &engine, false);
        assert_eq!(y.shape(), exact.shape());
        // PC3's OR loss (up to ~20% per product, independent of mantissa
        // width) compounds across the three stacked GEMM layers, so the
        // envelope is loose — per-layer tightness is pinned by the
        // bit-level lowering test above and the core differential suite.
        let scale: f32 = exact.data().iter().map(|v| v.abs()).fold(0.0, f32::max);
        for (e, b) in exact.data().iter().zip(y.data()) {
            assert!((e - b).abs() < 0.5 * scale + 0.05, "{e} vs {b}");
        }
        // And the approximate path genuinely ran: a bit-identical output
        // would mean the engine was silently bypassed.
        assert!(
            exact.data().iter().zip(y.data()).any(|(e, b)| e.to_bits() != b.to_bits()),
            "BlockFp forward output is bit-identical to exact — engine not routed"
        );
    }

    #[test]
    fn conv_known_answer() {
        // 1-channel 3x3 input, 1 filter of all ones, no padding: output
        // is the sum of the input.
        let mut c = Conv2d::new(1, 1, 3, 1, 0, 1);
        c.w.value = Tensor::from_vec(vec![1.0; 9], &[1, 9]);
        c.b.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let y = c.forward(&x, &ExactMul, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 45.0);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, -0.5], &[1, 4]);
        let y = r.forward(&x, &ExactMul, true);
        assert_eq!(y.data(), &[1.0, 0.0, 0.5, 0.0]);
        let g = Tensor::from_vec(vec![1.0; 4], &[1, 4]);
        let gx = r.backward(&g, &ExactMul);
        assert_eq!(gx.data(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let mut p = MaxPool2d::new();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = p.forward(&x, &ExactMul, true);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let gx = p.backward(&g, &ExactMul);
        assert_eq!(gx.data()[5], 1.0); // position of 6
        assert_eq!(gx.data()[7], 2.0); // position of 8
        assert_eq!(gx.data()[15], 4.0); // position of 16
        assert_eq!(gx.data().iter().sum::<f32>(), 10.0);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::randn(&[2, 3, 2, 2], 1.0, 1);
        let y = f.forward(&x, &ExactMul, true);
        assert_eq!(y.shape(), &[2, 12]);
        let gx = f.backward(&y, &ExactMul);
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn residual_adds_input_and_splits_gradient() {
        let inner = Sequential::new().push(Dense::new(3, 3, 2));
        let mut r = Residual::new(inner);
        let x = Tensor::randn(&[2, 3], 1.0, 9);
        let y = r.forward(&x, &ExactMul, true);
        assert_eq!(y.shape(), x.shape());
        let g = Tensor::from_vec(vec![1.0; 6], &[2, 3]);
        let gx = r.backward(&g, &ExactMul);
        // Gradient through the skip path alone contributes `g`.
        for (gv, _) in gx.data().iter().zip(g.data()) {
            assert!(gv.is_finite());
        }
        assert_eq!(r.params_mut().len(), 2);
    }

    #[test]
    fn sequential_composes() {
        let mut model =
            Sequential::new().push(Dense::new(4, 8, 1)).push(ReLU::new()).push(Dense::new(8, 2, 2));
        let x = Tensor::randn(&[3, 4], 1.0, 3);
        let y = model.forward(&x, &ExactMul, true);
        assert_eq!(y.shape(), &[3, 2]);
        let g = Tensor::from_vec(vec![1.0; 6], &[3, 2]);
        let gx = model.backward(&g, &ExactMul);
        assert_eq!(gx.shape(), &[3, 4]);
        assert_eq!(model.params_mut().len(), 4);
        assert!(model.name().contains("ReLU"));
    }
}

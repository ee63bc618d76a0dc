//! The networks the workloads run, described as layer specs so the same
//! weights can be built two ways: one flat `Sequential` (what a user
//! serves or trains, timed in the end-to-end runs) and one single-layer
//! `Sequential` per layer (what the traced runs time layer by layer).
//! Both carry identical weights, because every layer is initialised from
//! its own fixed seed.

use daism_dnn::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sequential};

/// One layer of a network.
#[derive(Clone, Copy, Debug)]
pub enum Spec {
    /// 3×3 convolution, stride 1, padding 1.
    Conv {
        in_ch: usize,
        out_ch: usize,
        seed: u64,
    },
    /// Fully-connected layer.
    Dense {
        inputs: usize,
        outputs: usize,
        seed: u64,
    },
    Relu,
    Pool,
    Flatten,
}

impl Spec {
    /// Name of the layer kind.
    pub fn name(self) -> &'static str {
        match self {
            Spec::Conv { .. } => "conv",
            Spec::Dense { .. } => "dense",
            Spec::Relu => "relu",
            Spec::Pool => "pool",
            Spec::Flatten => "flatten",
        }
    }

    /// Name of the span around this layer's forward.
    pub fn fwd_span(self) -> &'static str {
        match self {
            Spec::Conv { .. } => "conv.fwd",
            Spec::Dense { .. } => "dense.fwd",
            Spec::Relu => "relu.fwd",
            Spec::Pool => "pool.fwd",
            Spec::Flatten => "flatten.fwd",
        }
    }

    /// Name of the span around this layer's backward.
    pub fn bwd_span(self) -> &'static str {
        match self {
            Spec::Conv { .. } => "conv.bwd",
            Spec::Dense { .. } => "dense.bwd",
            Spec::Relu => "relu.bwd",
            Spec::Pool => "pool.bwd",
            Spec::Flatten => "flatten.bwd",
        }
    }

    fn push(self, seq: Sequential) -> Sequential {
        match self {
            Spec::Conv { in_ch, out_ch, seed } => {
                seq.push(Conv2d::new(in_ch, out_ch, 3, 1, 1, seed))
            }
            Spec::Dense { inputs, outputs, seed } => seq.push(Dense::new(inputs, outputs, seed)),
            Spec::Relu => seq.push(ReLU::new()),
            Spec::Pool => seq.push(MaxPool2d::new()),
            Spec::Flatten => seq.push(Flatten::new()),
        }
    }
}

/// A network: its layers and the shape of one input sample.
#[derive(Clone, Debug)]
pub struct Net {
    pub specs: Vec<Spec>,
    pub sample_shape: Vec<usize>,
    pub classes: usize,
}

impl Net {
    /// VGG-style CNN for `1×16×16` images (the shape of `models::mini_vgg(16, 4)`).
    pub fn cnn() -> Net {
        let specs = vec![
            Spec::Conv { in_ch: 1, out_ch: 8, seed: 201 },
            Spec::Relu,
            Spec::Pool,
            Spec::Conv { in_ch: 8, out_ch: 16, seed: 202 },
            Spec::Relu,
            Spec::Pool,
            Spec::Flatten,
            Spec::Dense { inputs: 16 * 4 * 4, outputs: 32, seed: 203 },
            Spec::Relu,
            Spec::Dense { inputs: 32, outputs: 4, seed: 204 },
        ];
        Net { specs, sample_shape: vec![1, 16, 16], classes: 4 }
    }

    /// The whole network as one flat chain.
    pub fn whole(&self) -> Sequential {
        self.specs.iter().fold(Sequential::new(), |seq, spec| spec.push(seq))
    }

    /// One single-layer chain per layer, in order.
    pub fn stages(&self) -> Vec<Sequential> {
        self.specs.iter().map(|spec| spec.push(Sequential::new())).collect()
    }

    /// Forward multiply-accumulates per sample, layer by layer (0 for
    /// layers without a GEMM).
    pub fn macs_per_sample(&self) -> Vec<u64> {
        let mut shape = self.sample_shape.clone();
        let mut macs = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let layer_macs = match *spec {
                Spec::Conv { in_ch, out_ch, .. } => {
                    assert_eq!(shape[0], in_ch, "conv input channels");
                    let (h, w) = (shape[1], shape[2]);
                    shape = vec![out_ch, h, w];
                    (out_ch * in_ch * 9 * h * w) as u64
                }
                Spec::Dense { inputs, outputs, .. } => {
                    assert_eq!(shape, [inputs], "dense input width");
                    shape = vec![outputs];
                    (inputs * outputs) as u64
                }
                Spec::Pool => {
                    shape = vec![shape[0], shape[1] / 2, shape[2] / 2];
                    0
                }
                Spec::Flatten => {
                    shape = vec![shape.iter().product()];
                    0
                }
                Spec::Relu => 0,
            };
            macs.push(layer_macs);
        }
        assert_eq!(shape, [self.classes], "network output width");
        macs
    }
}

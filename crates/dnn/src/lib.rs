//! A minimal DNN training/inference framework with pluggable scalar
//! multipliers — the substrate for the paper's accuracy evaluation
//! (Fig. 4) and its "training and inference" title claim.
//!
//! The paper evaluates accuracy on ImageNet-scale CNNs (ResNet-50 etc.);
//! neither the dataset nor pretrained weights can ship with this
//! reproduction, so a substitution applies instead:
//! small models are trained *in-repo* on deterministic synthetic tasks,
//! then evaluated under every multiplier backend. The error mechanism
//! being measured — OR-approximate mantissa products flowing through
//! convolutions, fully-connected layers and argmax — is the same.
//!
//! Every layer GEMM (forward *and* backward) runs on one
//! [`GemmBackend`](daism_core::GemmBackend) handle, so the same network
//! can run exact-`f32`, exact-`bfloat16`, any DAISM configuration
//! (every [`ScalarMul`](daism_core::ScalarMul) is a backend) or the
//! **block-floating-point** engine
//! ([`BlockFpGemm`](daism_core::BlockFpGemm): the accelerator's §IV-B
//! integer-mode dataflow with per-tile shared exponents), for inference
//! and training alike: [`Layer::forward`], [`train::accuracy`] and
//! [`Sequential::compile`] take whichever backend they are given.
//!
//! Each built-in layer has one forward: its compiled form
//! ([`CompiledLayer`]), which holds the weights in the backend's
//! stored-operand form. [`Layer::forward`] compiles the layer from its
//! current weights and runs it; a training forward also keeps what
//! backward needs. For serving, models **compile once and serve
//! many**: [`Sequential::compile`] snapshots every layer once (no
//! per-request weight conversion), [`CompiledModel::forward`] takes
//! `&self` so one session is shared across threads, and
//! [`InferenceSession`] micro-batches queued requests into one batched
//! GEMM per layer — all byte-identical to [`Layer::forward`] on the same
//! weights (see [`CompiledModel`]).
//!
//! # Example
//!
//! ```
//! use daism_dnn::{datasets, models, train};
//! use daism_core::{ApproxFpMul, ExactMul, MultiplierConfig, ScalarMul};
//! use daism_num::FpFormat;
//!
//! // Train a small MLP on a synthetic task with exact arithmetic…
//! let data = datasets::gaussian_blobs(3, 8, 120, 40, 7);
//! let mut model = models::mlp(8, 16, 3, 1);
//! let exact = ExactMul;
//! train::fit(&mut model, &data, &exact, &train::TrainParams::quick_test());
//!
//! // …then evaluate the same weights on the approximate multiplier.
//! let approx = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
//! let exact_acc = train::accuracy(&mut model, &data.test_x, &data.test_y, &exact);
//! let approx_acc = train::accuracy(&mut model, &data.test_x, &data.test_y, &approx);
//! assert!(exact_acc > 0.6);
//! assert!(approx_acc > exact_acc - 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
mod layers;
pub mod models;
mod session;
mod tensor;
pub mod train;

pub use layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Param, ReLU, Residual, Sequential};
pub use session::{CompiledLayer, CompiledModel, InferenceSession, RequestShapeError};
pub use tensor::Tensor;

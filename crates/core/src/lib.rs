//! The DAISM in-SRAM approximate multiplier — the paper's primary
//! contribution.
//!
//! # The idea
//!
//! Binary multiplication generates one *partial product* (PP) per set bit
//! of the multiplier — the multiplicand shifted by that bit's position —
//! then sums them, paying for carry propagation. DAISM stores the shifted
//! copies on the wordlines of a modified SRAM (one group of lines per
//! stored multiplicand) and lets the multiplier's bits activate several
//! wordlines at once: the wired-OR read that results *approximates* the
//! sum (`x | y = x + y − (x & y)`), with no adder tree at all.
//!
//! Variants (paper Table I, [`MultiplierConfig`]):
//!
//! * [`MultiplierKind::Fla`] — *full lines activation*: plain OR of all
//!   PPs;
//! * [`MultiplierKind::Pc2`] — the exact sum `A+B` of the two largest PPs
//!   is pre-computed and stored on one line, removing the most damaging
//!   collision;
//! * [`MultiplierKind::Pc3`] — exact sums for every combination of the
//!   three largest PPs;
//! * `*_tr` (`truncate = true`) — only the top *n* product columns are
//!   stored/sensed (legal because nothing carries), doubling the elements
//!   per read.
//!
//! Because DAISM multiplies floating-point *mantissas* (unsigned, with the
//! IEEE implicit leading one), PP `A` is always active; PC2 therefore
//! needs no extra lines at all and PC3 only one (paper §III-C).
//!
//! # Crate layout
//!
//! * [`LineLayout`] — which patterns live on which wordlines, and the
//!   address decoding from a multiplier mantissa to a wordline mask;
//! * [`MantissaMultiplier`] — fast bit-exact software model of the OR
//!   read;
//! * [`SramMultiplier`] — the same semantics executed through the
//!   bit-level `daism-sram` bank (differentially tested against the
//!   software model);
//! * [`ApproxFpMul`] / [`ScalarMul`] — the full floating-point multiply
//!   pipeline (sign, exponent, zero bypass, normalisation) around any
//!   mantissa multiplier, for `float32`, `bfloat16` or custom formats;
//! * [`BlockFpGemm`] — the tiled block-floating-point GEMM engine: one
//!   shared exponent per tile, integer-mode OR-approximate mantissa
//!   products, exact `i64` tile accumulation (the accelerator's §IV-B
//!   dataflow);
//! * [`GemmBackend`] — the one GEMM handle over both datapaths, with a
//!   stored operand prepared once ([`PreparedA`] / [`PreparedB`]) and
//!   served against many streamed ones;
//! * [`error_analysis`] — exhaustive and Monte-Carlo error
//!   characterisation of every configuration.
//!
//! # Example
//!
//! ```
//! use daism_core::{ApproxFpMul, MultiplierConfig, ScalarMul};
//! use daism_num::FpFormat;
//!
//! // The paper's preferred configuration: PC3 with truncation on bf16.
//! let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
//! let approx = mul.mul(1.375, 2.5);
//! let exact = 1.375f32 * 2.5;
//! // OR-approximation never overestimates:
//! assert!(approx <= exact);
//! assert!((exact - approx) / exact < 0.05);
//! ```

// Unsafe is denied crate-wide with exactly one exception: the
// runtime-gated `core::arch` AVX2 register kernel in `microkernel`
// (compiled only with the default `simd` feature on x86-64). Everything
// else — including the portable lane kernels — is checked Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
pub mod error_analysis;
mod fp;
mod gemm;
mod lines;
mod mantissa;
mod microkernel;
mod sram_backed;

pub use config::{MultiplierConfig, MultiplierKind, OperandMode};
pub use error::CoreError;
pub use fp::{ApproxFpMul, ExactMul, PreparedTile, QuantizedExactMul, ScalarMul, TileSource};
pub use gemm::{gemm, gemm_reference, BlockFpGemm, GemmBackend, PreparedA, PreparedB};
pub use lines::{LineLayout, LineSpec};
pub use mantissa::{exact_mul, MantissaMultiplier, PreparedMultiplicand};
pub use microkernel::gemm_f32_microkernel_portable;
pub use sram_backed::SramMultiplier;

//! DAISM — a full Rust reproduction of *"DAISM: Digital Approximate
//! In-SRAM Multiplier-based Accelerator for DNN Training and Inference"*
//! (Sonnino et al., DATE 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`num`] — floating-point formats, mantissa codecs, block FP;
//! * [`sram`] — bit-level SRAM with multi-wordline wired-OR reads;
//! * [`energy`] — CACTI/Accelergy-style energy, area and technology
//!   models;
//! * [`core`] — **the paper's contribution**: the FLA/PC2/PC3
//!   approximate multipliers and the floating-point pipeline around
//!   them;
//! * [`arch`] — the DAISM accelerator model, the Eyeriss-style baseline
//!   and the published Z-PIM/T-PIM comparison points;
//! * [`dnn`] — a small DNN framework whose every multiply routes
//!   through a pluggable multiplier backend;
//! * [`bench`](mod@bench) — runners regenerating every table and figure
//!   of the paper.
//!
//! The most common entry points are re-exported at the root.
//!
//! # Quickstart
//!
//! ```
//! use daism::{ApproxFpMul, FpFormat, MultiplierConfig, ScalarMul};
//!
//! // The paper's preferred multiplier: PC3 with truncation on bfloat16.
//! let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
//! let approx = mul.mul(3.25, 1.5);
//! assert!(approx <= 3.25 * 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use daism_arch as arch;
pub use daism_bench as bench;
pub use daism_core as core;
pub use daism_dnn as dnn;
pub use daism_energy as energy;
pub use daism_num as num;
pub use daism_sram as sram;

pub use daism_arch::{DaismConfig, DaismModel, EyerissModel, FunctionalDaism, GemmShape};
pub use daism_core::{
    gemm, gemm_reference, ApproxFpMul, BlockFpGemm, ExactMul, GemmBackend, MantissaMultiplier,
    MultiplierConfig, MultiplierKind, OperandMode, PreparedMultiplicand, QuantizedExactMul,
    ScalarMul, SramMultiplier,
};
pub use daism_num::{Bf16, BlockFp, FpFormat, FpScalar};
pub use daism_sram::{BankGeometry, SramBank};

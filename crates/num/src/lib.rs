//! Floating-point formats, mantissa codecs and block floating point.
//!
//! This crate is the numeric substrate of the DAISM reproduction. The DAISM
//! multiplier (see `daism-core`) operates on *unsigned integer mantissas with
//! an explicit leading one*; exponents and signs are handled by separate,
//! exact datapaths. This crate provides:
//!
//! * [`FpFormat`] — a parametric floating-point format (exponent width ×
//!   mantissa width), with [`FpFormat::FP32`] and [`FpFormat::BF16`]
//!   matching the two formats evaluated in the paper;
//! * [`FpScalar`] — a decoded floating-point value (sign, unbiased exponent,
//!   mantissa with explicit leading one) with bit-exact conversions from/to
//!   `f32`, including round-to-nearest-even narrowing;
//! * [`BlockFp`] — block floating point (one shared exponent per block), the
//!   representation the DAISM accelerator uses for whole matrices;
//! * [`bits`] — small bit-manipulation helpers used across the workspace.
//!
//! # Example
//!
//! ```
//! use daism_num::{FpFormat, FpScalar};
//!
//! // Decode 1.5f32 as a bfloat16 value: mantissa 0b1100_0000 (leading 1 kept).
//! let x = FpScalar::from_f32(1.5, FpFormat::BF16);
//! assert_eq!(x.mantissa(), 0b1100_0000);
//! assert_eq!(x.exponent(), 0);
//! assert_eq!(x.to_f32(), 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
mod blockfp;
mod error;
mod format;
mod scalar;

pub use blockfp::BlockFp;
pub use error::FormatError;
pub use format::FpFormat;
pub use scalar::{encode_normal_f32, quantize_f32, FpClass, FpScalar};

//! Analytical energy, area and technology models for the DAISM
//! reproduction.
//!
//! The paper evaluates DAISM with CACTI 7 (SRAM macros), Synopsys Design
//! Compiler on NANGATE 45 nm (digital logic) and Accelergy/Timeloop
//! (architecture roll-up). None of those tools is available here, so this
//! crate provides first-order analytical replacements:
//!
//! * [`TechNode`] — technology scaling and the gate-equivalent (GE) area
//!   normalisation used by the paper's Table II;
//! * [`SramMacro`] — a CACTI-style SRAM macro model: read/write energy as
//!   a function of geometry and activated wordlines, area, leakage;
//! * [`components`] — an Accelergy-style component library: baseline
//!   floating-point multipliers (calibrated to Yin et al., ISVLSI'16, the
//!   paper's baseline, its ref. 17), accumulators, exponent units, register files,
//!   scratchpads and the DAISM address decoder;
//! * [`EnergyBreakdown`] — named per-component energy totals with
//!   percentage reporting (the shape of the paper's Fig. 5).
//!
//! # Calibration
//!
//! Every constant lives in [`calib`] with a doc comment stating what it
//! was calibrated against. We do not claim absolute pJ accuracy; the
//! constants are chosen so that the *published aggregates* of the paper
//! (Table II: 2.44 mm² / 502.52 GOPS / ≈0.23 GOPS/mW at 16×8 kB; 4.23 mm²
//! / 1005.04 GOPS at 16×32 kB) and the qualitative findings of Fig. 5/6
//! (decoder < 0.5 %, truncation ≈ halves read energy, bank size ≈ neutral
//! per computation) are reproduced; the README's *Reproduced artifacts*
//! section lists the runners that print them.
//!
//! # Example
//!
//! ```
//! use daism_energy::{SramMacro, TechNode};
//!
//! // A 32 kB square bank at 45 nm: one multi-wordline activation with 5
//! // active lines, all 512 columns sensed.
//! let bank = SramMacro::new(512, 512, TechNode::N45);
//! let pj = bank.read_energy_pj(5.0, 512);
//! assert!(pj > 0.0);
//! // Per-computation cost for 32 elements of 16 bits each:
//! let per_comp = pj / 32.0;
//! assert!(per_comp < 10.0, "should be a few pJ, got {per_comp}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod components;
mod report;
mod sram_macro;
mod tech;

pub use report::EnergyBreakdown;
pub use sram_macro::SramMacro;
pub use tech::{dvfs_point, DvfsPoint, TechNode};

//! Bit-level behavioural model of a conventional SRAM extended with
//! *multiple-wordline activation*.
//!
//! The DAISM paper builds on the 4+2T SRAM of Dong et al. (VLSIC'17), in
//! which activating several wordlines at once makes each bitline read the
//! **wired-OR** of the selected cells. This crate models that memory
//! behaviourally and exactly at the bit level:
//!
//! * [`BitMatrix`] — a dense bit-packed `rows × cols` bit array, the raw
//!   cells;
//! * [`BankGeometry`] — physical array shapes (the paper assumes square
//!   banks: 8 kB = 256×256 bits, 32 kB = 512×512, 512 kB = 2048×2048);
//! * [`GroupLayout`] / [`SramBank`] — the DAISM storage discipline: rows
//!   are grouped into *wordline groups* of `lines_per_group` lines; each
//!   group stores `elements_per_group` operands side by side, one per
//!   `element_width`-bit column window. The bank owns its cells, their
//!   stuck-at faults and its counters; one
//!   [`read_or_group`](SramBank::read_or_group) activation reads every
//!   stored element of a group simultaneously;
//! * [`AccessStats`] — the events the bank counts (writes, OR reads,
//!   wordlines fired, bitlines sensed), which the energy models price.
//!
//! This crate is deliberately ignorant of *what* the lines mean — partial
//! products, pre-computed sums and address decoding are the business of
//! `daism-core`, which programs banks through this API.
//!
//! # Example
//!
//! ```
//! use daism_sram::{BankGeometry, GroupLayout, SramBank};
//!
//! // An 8 kB square bank storing 16-bit elements in 8-line groups.
//! let geom = BankGeometry::square_from_bytes(8 * 1024)?;
//! let layout = GroupLayout::new(8, 16)?;
//! let mut bank = SramBank::new(geom, layout)?;
//!
//! // Store patterns on lines 2 and 3 of group 0, slot 5, then activate
//! // both lines: every slot of the group reads the OR of its two cells.
//! bank.write_line(0, 2, 5, 0b1011)?;
//! bank.write_line(0, 3, 5, 0b0110)?;
//! let slots = bank.read_or_group(0, 0b1100)?; // mask selects lines 2,3
//! assert_eq!(slots[5], 0b1111);
//! assert_eq!(slots.len(), bank.slots());
//! assert_eq!(bank.stats().wordline_activations, 2);
//! # Ok::<(), daism_sram::SramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod bitmat;
mod error;
mod geometry;
mod stats;

pub use bank::{GroupLayout, SramBank};
pub use bitmat::BitMatrix;
pub use error::SramError;
pub use geometry::BankGeometry;
pub use stats::AccessStats;

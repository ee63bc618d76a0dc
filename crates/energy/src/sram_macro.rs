use crate::calib;
use crate::tech::TechNode;

/// CACTI-style analytical model of one SRAM macro (bank).
///
/// The model prices the accesses counted by `daism-sram`'s
/// `AccessStats`-style counters:
///
/// * a **read** (single- or multi-wordline) pays row decode, wordline
///   drive per active line, bitline swing per sensed column (growing with
///   bank height) and sense-amplifier fire per sensed column;
/// * a **write** pays per written bit;
/// * **area** is density × capacity plus fixed periphery;
/// * **leakage** scales with capacity.
///
/// The multi-wordline modification of Dong et al. (VLSIC'17) is free at
/// this granularity: it re-wires existing sense amplifiers and extends the
/// row decoder (the decoder delta is priced separately in
/// [`components::daism_decoder_energy_pj`](crate::components)).
///
/// # Examples
///
/// ```
/// use daism_energy::{SramMacro, TechNode};
///
/// let bank8k = SramMacro::new(256, 256, TechNode::N45);
/// let bank32k = SramMacro::new(512, 512, TechNode::N45);
/// // Reading a full row costs more on the wider bank...
/// assert!(bank32k.read_energy_pj(5.0, 512) > bank8k.read_energy_pj(5.0, 256));
/// // ...but per sensed column the two are close (Fig. 5 finding #3).
/// let per_col_8k = bank8k.read_energy_pj(5.0, 256) / 256.0;
/// let per_col_32k = bank32k.read_energy_pj(5.0, 512) / 512.0;
/// assert!((per_col_8k / per_col_32k - 1.0).abs() < 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    rows: usize,
    cols: usize,
    node: TechNode,
}

impl SramMacro {
    /// Creates a macro model for a `rows × cols` bit array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, node: TechNode) -> Self {
        assert!(rows > 0 && cols > 0, "macro dimensions must be non-zero");
        SramMacro { rows, cols, node }
    }

    /// Rows (wordlines).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (bitlines).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Capacity in bits.
    #[inline]
    pub fn bits(&self) -> usize {
        self.rows * self.cols
    }

    /// Technology node.
    #[inline]
    pub fn node(&self) -> TechNode {
        self.node
    }

    /// Energy of one read access activating `active_wordlines` lines and
    /// sensing `cols_sensed` columns, in pJ.
    ///
    /// Wordline drive is linear in the line count, so a fractional count
    /// prices the average read: pass the expected number of active lines
    /// over the multipliers a workload drives (the multiplier layout's
    /// `expected_active_lines`) without rounding it.
    ///
    /// Bitline capacitance saturates at
    /// [`calib::SUBARRAY_MAX_ROWS`] — taller macros are tiled from
    /// subarrays, as CACTI does.
    pub fn read_energy_pj(&self, active_wordlines: f64, cols_sensed: usize) -> f64 {
        let cols_sensed = cols_sensed.min(self.cols) as f64;
        let bitline_rows = self.rows.min(calib::SUBARRAY_MAX_ROWS) as f64;
        let e = calib::DECODE_PJ_PER_ACT
            + active_wordlines * self.cols as f64 * calib::WORDLINE_PJ_PER_COL
            + cols_sensed
                * (calib::SENSE_PJ_PER_COL + bitline_rows * calib::BITLINE_PJ_PER_COL_PER_ROW);
        e * self.node.energy_scale()
    }

    /// Energy of writing `bits` cells, in pJ.
    pub fn write_energy_pj(&self, bits: usize) -> f64 {
        (calib::DECODE_PJ_PER_ACT + bits as f64 * calib::WRITE_PJ_PER_BIT)
            * self.node.energy_scale()
    }

    /// Macro area in mm² (density × capacity + fixed periphery).
    pub fn area_mm2(&self) -> f64 {
        let mbits = self.bits() as f64 / (1024.0 * 1024.0);
        (mbits * calib::SRAM_MM2_PER_MBIT + calib::SRAM_MACRO_FIXED_MM2) * self.node.area_scale()
    }

    /// Leakage power in mW.
    pub fn leakage_mw(&self) -> f64 {
        let mbits = self.bits() as f64 / (1024.0 * 1024.0);
        mbits * calib::SRAM_LEAK_MW_PER_MBIT * self.node.energy_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(bytes: usize) -> SramMacro {
        let bits = bytes * 8;
        let side = (bits as f64).sqrt() as usize;
        SramMacro::new(side, side, TechNode::N45)
    }

    #[test]
    fn per_computation_energy_flat_across_bank_sizes() {
        // Fig. 5 finding #3: per-computation read energy barely moves
        // between 8 kB and 32 kB banks (same element width).
        let w = 16.0;
        let e8 = bank(8 * 1024).read_energy_pj(5.0, 256) / (256.0 / w);
        let e32 = bank(32 * 1024).read_energy_pj(5.0, 512) / (512.0 / w);
        let ratio = e8 / e32;
        assert!((0.8..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn truncation_halves_sensed_energy() {
        // Fig. 5 finding #4: sensing half the columns (truncated layout
        // doubles elements per read) nearly halves read energy/comp.
        let m = bank(32 * 1024);
        let full = m.read_energy_pj(5.0, 512) / 32.0; // 32 elems of 16 bits
        let trunc = m.read_energy_pj(5.0, 512) / 64.0; // 64 elems of 8 bits
        let ratio = trunc / full;
        assert!((0.45..0.55).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn decoder_share_below_half_percent() {
        // Fig. 5 finding #1 at the macro level.
        let m = bank(8 * 1024);
        let read = m.read_energy_pj(9.0, 256);
        assert!(crate::calib::DAISM_DECODER_PJ_PER_ACT / read < 0.005);
    }

    #[test]
    fn more_wordlines_cost_more() {
        let m = bank(8 * 1024);
        assert!(m.read_energy_pj(9.0, 256) > m.read_energy_pj(1.0, 256));
    }

    #[test]
    fn write_scales_with_bits() {
        let m = bank(8 * 1024);
        assert!(m.write_energy_pj(256) > 3.0 * m.write_energy_pj(16));
    }

    #[test]
    fn area_scales_with_capacity() {
        let a8 = bank(8 * 1024).area_mm2();
        let a32 = bank(32 * 1024).area_mm2();
        assert!(a32 > 3.5 * a8 && a32 < 4.5 * a8);
    }

    #[test]
    fn area_calibration_matches_table2_delta() {
        // 16 banks growing from 8 kB to 32 kB adds 3 Mbit; the paper's
        // area delta is 4.23 - 2.44 = 1.79 mm², of which the per-PE
        // digital (256 extra PEs) accounts for ~0.5 mm².
        let delta = 16.0 * (bank(32 * 1024).area_mm2() - bank(8 * 1024).area_mm2());
        assert!((1.2..1.45).contains(&delta), "sram delta {delta}");
    }

    #[test]
    fn cols_sensed_clamped_to_macro_width() {
        let m = bank(8 * 1024);
        assert_eq!(m.read_energy_pj(1.0, 10_000), m.read_energy_pj(1.0, 256));
    }

    #[test]
    fn leakage_positive_and_scales() {
        assert!(bank(32 * 1024).leakage_mw() > bank(8 * 1024).leakage_mw());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        let _ = SramMacro::new(0, 256, TechNode::N45);
    }
}

use crate::config::{MultiplierConfig, OperandMode};
use crate::error::CoreError;
use crate::lines::LineLayout;
use daism_num::bits;
use daism_sram::{AccessStats, BankGeometry, GroupLayout, SramBank};

/// The DAISM multiplier executed through the bit-level SRAM model: kernel
/// mantissas are *programmed* as shifted/pre-summed line patterns, and a
/// multiplication is a multi-wordline activation driven by the address
/// decoder.
///
/// One [`SramMultiplier::multiply_group`] call is one hardware cycle: a
/// single input multiplies **every** multiplicand stored in the group.
/// The access statistics it accumulates (`or_reads`,
/// `wordline_activations`, `bitlines_sensed`) are exactly what
/// `daism-energy` prices.
///
/// The semantics are differentially tested against
/// [`MantissaMultiplier`](crate::MantissaMultiplier) — both derive from
/// the same [`LineLayout`], so the SRAM path validates the storage and
/// sensing mechanics rather than re-deriving the arithmetic.
///
/// # Examples
///
/// ```
/// use daism_core::{MultiplierConfig, OperandMode, SramMultiplier};
/// use daism_sram::BankGeometry;
///
/// let geom = BankGeometry::square_from_bytes(8 * 1024)?;
/// let mut m = SramMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8, geom)?;
///
/// // Program two kernel mantissas into group 0.
/// m.program(0, 0, 0b1010_0001)?;
/// m.program(0, 1, 0b1111_1111)?;
///
/// // One activation multiplies both by the same input.
/// let products = m.multiply_group(0, 0b1100_0000)?;
/// assert_eq!(products[0], ((0b1010_0001u64 * 0b1100_0000) >> 8)); // PC3 exact on A+B
/// # Ok::<(), daism_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SramMultiplier {
    bank: SramBank,
    layout: LineLayout,
    programmed: Vec<Option<u64>>,
}

impl SramMultiplier {
    /// Creates a multiplier backed by a bank of the given geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry cannot hold a single group of the
    /// configuration's lines ([`LineLayout::len`]) at its stored width.
    pub fn new(
        config: MultiplierConfig,
        mode: OperandMode,
        n: u32,
        geometry: BankGeometry,
    ) -> Result<Self, CoreError> {
        let layout = LineLayout::new(config, mode, n);
        let group_layout = GroupLayout::new(layout.len(), layout.stored_width())?;
        let bank = SramBank::new(geometry, group_layout)?;
        let capacity = bank.capacity();
        Ok(SramMultiplier { bank, layout, programmed: vec![None; capacity] })
    }

    /// The line layout (shared with the software model).
    #[inline]
    pub fn layout(&self) -> &LineLayout {
        &self.layout
    }

    /// Groups in the bank.
    #[inline]
    pub fn groups(&self) -> usize {
        self.bank.groups()
    }

    /// Multiplicand slots per group.
    #[inline]
    pub fn slots(&self) -> usize {
        self.bank.slots()
    }

    /// Total multiplicand capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.bank.capacity()
    }

    /// SRAM access statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> AccessStats {
        self.bank.stats()
    }

    /// Resets the SRAM access statistics.
    pub fn reset_stats(&mut self) {
        self.bank.reset_stats();
    }

    fn check_operand(&self, v: u64, is_multiplier: bool) -> Result<(), CoreError> {
        let n = self.layout.mantissa_width();
        if bits::width_of(v) > n {
            return Err(CoreError::OperandWidth { value: v, width: n, missing_leading_one: false });
        }
        if is_multiplier && self.layout.mode() == OperandMode::Fp && v != 0 && !bits::bit(v, n - 1)
        {
            return Err(CoreError::OperandWidth { value: v, width: n, missing_leading_one: true });
        }
        Ok(())
    }

    /// Programs multiplicand `a` into `(group, slot)`: writes the pattern
    /// of every line of the layout (the kernel pre-loading step whose
    /// cost the paper amortises over operand reuse).
    ///
    /// # Errors
    ///
    /// Returns range errors from the bank, or
    /// [`CoreError::OperandWidth`] if `a` exceeds the mantissa width.
    pub fn program(&mut self, group: usize, slot: usize, a: u64) -> Result<(), CoreError> {
        self.check_operand(a, false)?;
        for line in 0..self.layout.len() {
            let pattern = self.layout.stored_pattern(line, a);
            self.bank.write_line(group, line, slot, pattern)?;
        }
        let idx = group * self.slots() + slot;
        if idx < self.programmed.len() {
            self.programmed[idx] = Some(a);
        }
        Ok(())
    }

    /// Programs a sequence of multiplicands into consecutive slots
    /// (row-major over groups), returning their `(group, slot)` homes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CapacityExceeded`] if they do not fit.
    pub fn program_all(&mut self, elements: &[u64]) -> Result<Vec<(usize, usize)>, CoreError> {
        if elements.len() > self.capacity() {
            return Err(CoreError::CapacityExceeded {
                requested: elements.len(),
                capacity: self.capacity(),
            });
        }
        let mut homes = Vec::with_capacity(elements.len());
        for (i, &a) in elements.iter().enumerate() {
            let group = i / self.slots();
            let slot = i % self.slots();
            self.program(group, slot, a)?;
            homes.push((group, slot));
        }
        Ok(homes)
    }

    /// One hardware cycle: decodes multiplier `b`, activates the selected
    /// wordlines of `group`, and returns the approximate product for
    /// every slot of the group (unprogrammed slots read the OR of their
    /// zero-initialised cells, i.e. 0).
    ///
    /// # Errors
    ///
    /// Returns operand/range errors.
    pub fn multiply_group(&mut self, group: usize, b: u64) -> Result<Vec<u64>, CoreError> {
        self.check_operand(b, true)?;
        Ok(self.bank.read_or_group(group, self.layout.decode(b))?)
    }

    /// Convenience single-slot multiply (still one full activation — the
    /// hardware cannot read less than a group row).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SlotNotProgrammed`] if the slot was never
    /// programmed, plus operand/range errors.
    pub fn multiply(&mut self, group: usize, slot: usize, b: u64) -> Result<u64, CoreError> {
        let idx = group * self.slots() + slot;
        if self.programmed.get(idx).copied().flatten().is_none() {
            return Err(CoreError::SlotNotProgrammed { group, slot });
        }
        let all = self.multiply_group(group, b)?;
        Ok(all[slot])
    }

    /// The multiplicand programmed at `(group, slot)`, if any.
    pub fn programmed_at(&self, group: usize, slot: usize) -> Option<u64> {
        self.programmed.get(group * self.slots() + slot).copied().flatten()
    }

    /// Injects a stuck-at fault into one cell of a slot's line (fault
    /// studies: the OR read degrades gracefully — a stuck-1 can only
    /// raise a result bit, a stuck-0 can only clear one).
    ///
    /// # Errors
    ///
    /// Returns range errors for bad coordinates.
    pub fn inject_stuck_at(
        &mut self,
        group: usize,
        line: usize,
        slot: usize,
        bit: u32,
        value: bool,
    ) -> Result<(), CoreError> {
        Ok(self.bank.inject_stuck_at(group, line, slot, bit, value)?)
    }

    /// Number of faulty cells injected so far.
    pub fn fault_count(&self) -> usize {
        self.bank.fault_count()
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.bank.clear_faults();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mantissa::MantissaMultiplier;

    fn geom_2k() -> BankGeometry {
        BankGeometry::square_from_bytes(2 * 1024).unwrap() // 128x128
    }

    #[test]
    fn sram_path_matches_software_model_all_configs() {
        // The differential test: every config, every fp operand pair on a
        // coarse grid, SRAM == software.
        for config in MultiplierConfig::ALL {
            let sw = MantissaMultiplier::new(config, OperandMode::Fp, 8);
            let mut hw = SramMultiplier::new(config, OperandMode::Fp, 8, geom_2k()).unwrap();
            let a_values: Vec<u64> = (0x80u64..=0xFF).step_by(9).collect();
            let homes = hw.program_all(&a_values).unwrap();
            for b in (0x80u64..=0xFF).step_by(7) {
                for (&a, &(group, slot)) in a_values.iter().zip(&homes) {
                    let hw_result = hw.multiply(group, slot, b).unwrap();
                    assert_eq!(hw_result, sw.multiply(a, b), "{config}: a={a:#x} b={b:#x}");
                }
            }
        }
    }

    #[test]
    fn int_mode_matches_software_model() {
        for config in [MultiplierConfig::FLA, MultiplierConfig::PC2, MultiplierConfig::PC3] {
            let sw = MantissaMultiplier::new(config, OperandMode::Int, 8);
            let mut hw = SramMultiplier::new(config, OperandMode::Int, 8, geom_2k()).unwrap();
            hw.program(0, 0, 0xB7).unwrap();
            for b in (0u64..=0xFF).step_by(5) {
                let all = hw.multiply_group(0, b).unwrap();
                assert_eq!(all[0], sw.multiply(0xB7, b), "{config}: b={b:#x}");
            }
        }
    }

    #[test]
    fn group_multiply_is_one_or_read() {
        let mut hw =
            SramMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8, geom_2k()).unwrap();
        hw.program(0, 0, 0xFF).unwrap();
        hw.program(0, 1, 0x80).unwrap();
        hw.reset_stats();
        let _ = hw.multiply_group(0, 0b1110_0001).unwrap();
        let st = hw.stats();
        assert_eq!(st.or_reads, 1);
        // PC3 decode of 1110_0001: ABC line + H line = 2 wordlines.
        assert_eq!(st.wordline_activations, 2);
        assert_eq!(st.bitlines_sensed, 128);
    }

    #[test]
    fn expected_active_lines_is_what_the_datapath_fires() {
        // The energy model charges `expected_active_lines` per OR read;
        // driving every fp-mode multiplier through the bit-level datapath
        // must fire exactly that many wordlines on average.
        for config in MultiplierConfig::ALL {
            let mut hw = SramMultiplier::new(config, OperandMode::Fp, 8, geom_2k()).unwrap();
            hw.program(0, 0, 0xB7).unwrap();
            hw.reset_stats();
            for b in 0x80u64..=0xFF {
                let _ = hw.multiply_group(0, b).unwrap();
            }
            assert_eq!(
                hw.stats().avg_wordlines_per_or_read(),
                hw.layout().expected_active_lines(),
                "{config}"
            );
        }
    }

    #[test]
    fn capacity_and_geometry() {
        // 128x128 bits, PC3 full: 9 lines/group, 16-bit slots.
        let hw = SramMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8, geom_2k()).unwrap();
        assert_eq!(hw.groups(), 128 / 9);
        assert_eq!(hw.slots(), 8);
        // Truncated: 8-bit slots, double the elements.
        let tr =
            SramMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8, geom_2k()).unwrap();
        assert_eq!(tr.slots(), 16);
    }

    #[test]
    fn program_all_overflow_errors() {
        let mut hw =
            SramMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8, geom_2k()).unwrap();
        let too_many: Vec<u64> = vec![0x80; hw.capacity() + 1];
        assert!(matches!(hw.program_all(&too_many), Err(CoreError::CapacityExceeded { .. })));
    }

    #[test]
    fn unprogrammed_slot_errors() {
        let mut hw =
            SramMultiplier::new(MultiplierConfig::PC2, OperandMode::Fp, 8, geom_2k()).unwrap();
        assert!(matches!(
            hw.multiply(0, 3, 0x80),
            Err(CoreError::SlotNotProgrammed { group: 0, slot: 3 })
        ));
    }

    #[test]
    fn operand_validation() {
        let mut hw =
            SramMultiplier::new(MultiplierConfig::PC2, OperandMode::Fp, 8, geom_2k()).unwrap();
        // Multiplicand too wide.
        assert!(matches!(
            hw.program(0, 0, 0x1FF),
            Err(CoreError::OperandWidth { missing_leading_one: false, .. })
        ));
        hw.program(0, 0, 0x80).unwrap();
        // Multiplier missing leading one.
        assert!(matches!(
            hw.multiply_group(0, 0x40),
            Err(CoreError::OperandWidth { missing_leading_one: true, .. })
        ));
    }

    #[test]
    fn reprogramming_a_slot_replaces_patterns() {
        let mut hw =
            SramMultiplier::new(MultiplierConfig::FLA, OperandMode::Fp, 8, geom_2k()).unwrap();
        hw.program(2, 3, 0xFF).unwrap();
        hw.program(2, 3, 0x81).unwrap();
        assert_eq!(hw.programmed_at(2, 3), Some(0x81));
        let v = hw.multiply(2, 3, 0x80).unwrap();
        assert_eq!(v, 0x81u64 * 0x80);
    }

    #[test]
    fn fp32_geometry() {
        // 24-bit mantissa, PC3: 25 lines, 48-bit slots. 128 rows fit 5
        // groups; 128 cols fit 2 slots.
        let hw =
            SramMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 24, geom_2k()).unwrap();
        assert_eq!(hw.groups(), 5);
        assert_eq!(hw.slots(), 2);
        assert_eq!(hw.capacity(), 10);
    }
}

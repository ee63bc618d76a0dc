use crate::bitmat::{read_span, BitMatrix};
use crate::error::SramError;
use crate::geometry::BankGeometry;
use crate::stats::AccessStats;

/// The DAISM storage discipline for one bank: wordlines are tiled into
/// *groups* of `lines_per_group` consecutive lines, and each group's columns
/// are tiled into `element_width`-bit *slots*, one stored operand per slot.
///
/// For `bfloat16` (mantissa width *n* = 8): FLA/PC2 need 8 lines per group
/// and PC3 needs 9; a full-width product occupies 16 columns and a truncated
/// one 8. What pattern goes on which line is decided by `daism-core`.
///
/// # Examples
///
/// ```
/// use daism_sram::{BankGeometry, GroupLayout};
///
/// let geom = BankGeometry::square_from_bytes(8 * 1024)?; // 256x256
/// let layout = GroupLayout::new(8, 16)?;
/// assert_eq!(layout.groups(geom), 32);
/// assert_eq!(layout.elements_per_group(geom), 16);
/// # Ok::<(), daism_sram::SramError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupLayout {
    lines_per_group: usize,
    element_width: u32,
}

impl GroupLayout {
    /// Creates a layout with `lines_per_group` wordlines per group and
    /// `element_width` bits per stored element.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidLayout`] if either parameter is zero, or
    /// [`SramError::WidthTooWide`] if `element_width > 64`.
    pub fn new(lines_per_group: usize, element_width: u32) -> Result<Self, SramError> {
        if lines_per_group == 0 {
            return Err(SramError::InvalidLayout("lines_per_group must be non-zero".into()));
        }
        if element_width == 0 {
            return Err(SramError::InvalidLayout("element_width must be non-zero".into()));
        }
        if element_width > 64 {
            return Err(SramError::WidthTooWide(element_width));
        }
        Ok(GroupLayout { lines_per_group, element_width })
    }

    /// Wordlines per group.
    #[inline]
    pub fn lines_per_group(&self) -> usize {
        self.lines_per_group
    }

    /// Bits per stored element.
    #[inline]
    pub fn element_width(&self) -> u32 {
        self.element_width
    }

    /// How many whole groups fit in `geom` (leftover rows are unused —
    /// the paper's Fig. 3 shows this dotted "unused SRAM space").
    #[inline]
    pub fn groups(&self, geom: BankGeometry) -> usize {
        geom.rows() / self.lines_per_group
    }

    /// How many elements fit side by side in one group.
    #[inline]
    pub fn elements_per_group(&self, geom: BankGeometry) -> usize {
        geom.cols() / self.element_width as usize
    }

    /// Total element capacity of a bank with this layout.
    #[inline]
    pub fn capacity(&self, geom: BankGeometry) -> usize {
        self.groups(geom) * self.elements_per_group(geom)
    }

    /// Checks that at least one group and one slot fit.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidLayout`] when the bank cannot hold a
    /// single group or slot.
    pub fn validate(&self, geom: BankGeometry) -> Result<(), SramError> {
        if self.groups(geom) == 0 {
            return Err(SramError::InvalidLayout(format!(
                "{} lines per group do not fit in {} rows",
                self.lines_per_group,
                geom.rows()
            )));
        }
        if self.elements_per_group(geom) == 0 {
            return Err(SramError::InvalidLayout(format!(
                "element width {} does not fit in {} columns",
                self.element_width,
                geom.cols()
            )));
        }
        Ok(())
    }
}

/// An SRAM bank programmed with the DAISM group/slot discipline: the
/// bit cells, their stuck-at faults and the access counters of one
/// modified 4+2T array.
///
/// `SramBank` performs the two operations the accelerator performs, and
/// counts each in its [`AccessStats`]:
///
/// * [`SramBank::write_line`] — program one line of one slot (kernel
///   pre-loading);
/// * [`SramBank::read_or_group`] — activate a set of lines in a group (via
///   a bitmask produced by the address decoder in `daism-core`) and read
///   **every slot** of the group in one cycle: each bitline senses the
///   wired-OR of the selected cells.
///
/// Stuck-at faults ([`SramBank::inject_stuck_at`]) apply per cell before
/// the OR, as physical defects would.
#[derive(Debug, Clone)]
pub struct SramBank {
    cells: BitMatrix,
    /// Lazily allocated: most banks never see a fault.
    faults: Option<Box<FaultOverlay>>,
    stats: AccessStats,
    geometry: BankGeometry,
    layout: GroupLayout,
    groups: usize,
    slots: usize,
}

/// A set bit in `stuck0` forces its cell to read 0, in `stuck1` to read 1.
#[derive(Debug, Clone)]
struct FaultOverlay {
    stuck0: BitMatrix,
    stuck1: BitMatrix,
    count: usize,
}

impl SramBank {
    /// Creates a zeroed bank.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidLayout`] if the layout does not tile the
    /// geometry.
    pub fn new(geometry: BankGeometry, layout: GroupLayout) -> Result<Self, SramError> {
        layout.validate(geometry)?;
        Ok(SramBank {
            cells: BitMatrix::new(geometry.rows(), geometry.cols()),
            faults: None,
            stats: AccessStats::new(),
            geometry,
            layout,
            groups: layout.groups(geometry),
            slots: layout.elements_per_group(geometry),
        })
    }

    /// The bank's layout.
    #[inline]
    pub fn layout(&self) -> GroupLayout {
        self.layout
    }

    /// The bank's geometry.
    #[inline]
    pub fn geometry(&self) -> BankGeometry {
        self.geometry
    }

    /// Number of wordline groups.
    #[inline]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Element slots per group.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Total element capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.groups * self.slots
    }

    /// Accumulated access statistics.
    #[inline]
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Resets the access statistics (contents and faults are unaffected).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn check_group(&self, group: usize) -> Result<(), SramError> {
        if group >= self.groups {
            return Err(SramError::GroupOutOfRange { group, groups: self.groups });
        }
        Ok(())
    }

    /// The physical row of `line` in `group`, after range-checking
    /// `group`, `line` and `slot`.
    fn row_of(&self, group: usize, line: usize, slot: usize) -> Result<usize, SramError> {
        self.check_group(group)?;
        if slot >= self.slots {
            return Err(SramError::SlotOutOfRange { slot, slots: self.slots });
        }
        let lines = self.layout.lines_per_group();
        if line >= lines {
            return Err(SramError::LineOutOfRange { line, lines });
        }
        Ok(group * lines + line)
    }

    fn col_of(&self, slot: usize) -> usize {
        slot * self.layout.element_width() as usize
    }

    /// Programs `pattern` on `line` of `group`, in the column window of
    /// `slot`.
    ///
    /// # Errors
    ///
    /// Returns range errors for bad `group`/`line`/`slot`, or
    /// [`SramError::ValueTooWide`] if `pattern` exceeds the element width.
    pub fn write_line(
        &mut self,
        group: usize,
        line: usize,
        slot: usize,
        pattern: u64,
    ) -> Result<(), SramError> {
        let row = self.row_of(group, line, slot)?;
        let width = self.layout.element_width();
        self.cells.write_bits(row, self.col_of(slot), width, pattern)?;
        self.stats.writes += 1;
        self.stats.bits_written += u64::from(width);
        Ok(())
    }

    /// Activates the lines of `group` selected by `line_mask` (bit *i* set
    /// activates line *i*) and reads **all slots** in one cycle — the
    /// DAISM "one input × all kernel elements" operation. Slot `i` of the
    /// result is the wired-OR of the selected lines in slot `i`'s column
    /// window. Charges one OR read, `line_mask.count_ones()` wordlines and
    /// every column of the bank to the statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::GroupOutOfRange`] for a bad `group`, or
    /// [`SramError::LineOutOfRange`] if the mask selects a non-existent
    /// line.
    pub fn read_or_group(&mut self, group: usize, line_mask: u64) -> Result<Vec<u64>, SramError> {
        self.check_group(group)?;
        let lines = self.layout.lines_per_group();
        if lines < 64 && line_mask >> lines != 0 {
            let line = (line_mask >> lines).trailing_zeros() as usize + lines;
            return Err(SramError::LineOutOfRange { line, lines });
        }
        let mut sensed = vec![0u64; self.geometry.cols().div_ceil(64)];
        let mut selected = line_mask;
        while selected != 0 {
            let row = group * lines + selected.trailing_zeros() as usize;
            selected &= selected - 1;
            let cells = self.cells.row_words(row).iter();
            match &self.faults {
                None => sensed.iter_mut().zip(cells).for_each(|(s, &c)| *s |= c),
                Some(f) => {
                    let stuck = f.stuck0.row_words(row).iter().zip(f.stuck1.row_words(row));
                    for ((s, &c), (&s0, &s1)) in sensed.iter_mut().zip(cells).zip(stuck) {
                        *s |= (c & !s0) | s1;
                    }
                }
            }
        }
        self.stats.or_reads += 1;
        self.stats.wordline_activations += u64::from(line_mask.count_ones());
        self.stats.bitlines_sensed += self.geometry.cols() as u64;
        let width = self.layout.element_width();
        Ok((0..self.slots).map(|slot| read_span(&sensed, self.col_of(slot), width)).collect())
    }

    /// Injects a stuck-at fault: the cell at bit `bit` of `slot`'s window
    /// on `line` of `group` permanently reads `value`, whatever is
    /// written. Injecting both polarities on one cell leaves the last one.
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
    ) -> Result<(), SramError> {
        let row = self.row_of(group, line, slot)?;
        let col = self.col_of(slot) + bit as usize;
        if bit >= self.layout.element_width() {
            return Err(SramError::ColOutOfRange { col, width: 1, cols: self.geometry.cols() });
        }
        let (rows, cols) = (self.geometry.rows(), self.geometry.cols());
        let overlay = self.faults.get_or_insert_with(|| {
            Box::new(FaultOverlay {
                stuck0: BitMatrix::new(rows, cols),
                stuck1: BitMatrix::new(rows, cols),
                count: 0,
            })
        });
        if !overlay.stuck0.get(row, col) && !overlay.stuck1.get(row, col) {
            overlay.count += 1;
        }
        overlay.stuck0.set(row, col, !value);
        overlay.stuck1.set(row, col, value);
        Ok(())
    }

    /// Number of faulty cells in this bank.
    pub fn fault_count(&self) -> usize {
        self.faults.as_ref().map_or(0, |f| f.count)
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank_8k() -> SramBank {
        SramBank::new(
            BankGeometry::square_from_bytes(8 * 1024).unwrap(),
            GroupLayout::new(8, 16).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn paper_8kb_capacity() {
        let b = bank_8k();
        assert_eq!(b.groups(), 32);
        assert_eq!(b.slots(), 16);
        assert_eq!(b.capacity(), 512);
    }

    #[test]
    fn paper_512kb_capacity_matches_text() {
        // §V-C2: "such a 512kB bank can store up to 128x256 kernel
        // elements" with 8-line groups and 16-bit elements.
        let b = SramBank::new(
            BankGeometry::square_from_bytes(512 * 1024).unwrap(),
            GroupLayout::new(8, 16).unwrap(),
        )
        .unwrap();
        assert_eq!(b.slots(), 128);
        assert_eq!(b.groups(), 256);
        assert_eq!(b.capacity(), 128 * 256);
    }

    #[test]
    fn write_then_or_read_slotwise() {
        let mut b = bank_8k();
        b.write_line(3, 0, 7, 0x8001).unwrap();
        b.write_line(3, 4, 7, 0x0810).unwrap();
        b.write_line(3, 7, 7, 0x0002).unwrap();
        // Activate lines 0, 4, 7.
        let v = b.read_or_group(3, 0b1001_0001).unwrap()[7];
        assert_eq!(v, 0x8813);
    }

    #[test]
    fn group_read_returns_every_slot() {
        let mut b = bank_8k();
        for slot in 0..b.slots() {
            b.write_line(1, 0, slot, slot as u64 + 1).unwrap();
            b.write_line(1, 1, slot, 0x100).unwrap();
        }
        let all = b.read_or_group(1, 0b11).unwrap();
        assert_eq!(all.len(), 16);
        for (slot, v) in all.iter().enumerate() {
            assert_eq!(*v, (slot as u64 + 1) | 0x100);
        }
        // One OR read, two wordlines, all 256 bitlines.
        let st = b.stats();
        assert_eq!(st.or_reads, 1);
        assert_eq!(st.wordline_activations, 2);
        assert_eq!(st.bitlines_sensed, 256);
    }

    #[test]
    fn group_read_matches_slot_reads() {
        // Every slot of one group read is the OR of that slot's selected
        // lines alone.
        let mut b = bank_8k();
        let pattern =
            |slot: usize, line: usize| ((slot * 31 + line * 7) as u64 * 2654435761) & 0xFFFF;
        for slot in 0..b.slots() {
            for line in 0..8 {
                b.write_line(5, line, slot, pattern(slot, line)).unwrap();
            }
        }
        let mask = 0b1011_0101u64;
        let grouped = b.read_or_group(5, mask).unwrap();
        for (slot, &g) in grouped.iter().enumerate() {
            let single = (0..8).filter(|l| mask >> l & 1 == 1).fold(0, |v, l| v | pattern(slot, l));
            assert_eq!(g, single, "slot {slot}");
        }
    }

    #[test]
    fn unaligned_element_width_straddles_words() {
        // 9-bit elements force slot windows to straddle u64 boundaries.
        let geom = BankGeometry::new(4, 90).unwrap();
        let layout = GroupLayout::new(2, 9).unwrap();
        let mut b = SramBank::new(geom, layout).unwrap();
        assert_eq!(b.slots(), 10);
        for slot in 0..10 {
            b.write_line(0, 0, slot, (slot as u64 * 37) & 0x1FF).unwrap();
            b.write_line(0, 1, slot, (slot as u64 * 101) & 0x1FF).unwrap();
        }
        let all = b.read_or_group(0, 0b11).unwrap();
        for (slot, &got) in all.iter().enumerate() {
            let expect = ((slot as u64 * 37) & 0x1FF) | ((slot as u64 * 101) & 0x1FF);
            assert_eq!(got, expect, "slot {slot}");
        }
    }

    #[test]
    fn mask_selecting_missing_line_errors() {
        let mut b = bank_8k();
        let err = b.read_or_group(0, 0b1 | 1 << 8).unwrap_err();
        assert_eq!(err, SramError::LineOutOfRange { line: 8, lines: 8 });
        // A rejected read is not charged.
        assert_eq!(b.stats(), AccessStats::default());
    }

    #[test]
    fn range_errors() {
        let mut b = bank_8k();
        assert!(matches!(b.write_line(32, 0, 0, 0), Err(SramError::GroupOutOfRange { .. })));
        assert!(matches!(b.write_line(0, 8, 0, 0), Err(SramError::LineOutOfRange { .. })));
        assert!(matches!(b.write_line(0, 0, 16, 0), Err(SramError::SlotOutOfRange { .. })));
        assert!(matches!(b.write_line(0, 0, 0, 1 << 16), Err(SramError::ValueTooWide { .. })));
        assert!(matches!(b.read_or_group(99, 1), Err(SramError::GroupOutOfRange { .. })));
        // Failed writes are not charged.
        assert_eq!(b.stats(), AccessStats::default());
    }

    #[test]
    fn layout_validation() {
        let geom = BankGeometry::new(4, 8).unwrap();
        assert!(GroupLayout::new(8, 4).unwrap().validate(geom).is_err());
        assert!(GroupLayout::new(2, 16).unwrap().validate(geom).is_err());
        assert!(GroupLayout::new(2, 8).unwrap().validate(geom).is_ok());
        assert!(GroupLayout::new(0, 8).is_err());
        assert!(GroupLayout::new(8, 0).is_err());
        assert!(GroupLayout::new(8, 65).is_err());
    }

    #[test]
    fn truncated_layout_doubles_slots() {
        let geom = BankGeometry::square_from_bytes(8 * 1024).unwrap();
        let full = GroupLayout::new(8, 16).unwrap();
        let truncated = GroupLayout::new(8, 8).unwrap();
        assert_eq!(truncated.elements_per_group(geom), 2 * full.elements_per_group(geom));
    }

    /// A 16×64-bit bank of 2-line groups and 12-bit slots: five slots per
    /// group, the fifth (columns 48..60) below the row's end.
    fn small() -> SramBank {
        SramBank::new(BankGeometry::new(16, 64).unwrap(), GroupLayout::new(2, 12).unwrap()).unwrap()
    }

    #[test]
    fn write_and_or_read_count_stats() {
        let mut b = small();
        b.write_line(1, 1, 4, 0xABC).unwrap();
        b.write_line(1, 0, 4, 0x003).unwrap();
        assert_eq!(b.read_or_group(1, 0b11).unwrap()[4], 0xABF);
        let st = b.stats();
        assert_eq!((st.writes, st.bits_written), (2, 24));
        assert_eq!((st.or_reads, st.wordline_activations), (1, 2));
        // Every column of the row senses, whatever the slots cover.
        assert_eq!(st.bitlines_sensed, 64);
    }

    #[test]
    fn or_read_senses_all_columns() {
        // The last slot ends at column 60; the read still senses all 64
        // bitlines, once per OR read.
        let mut b = small();
        b.write_line(2, 1, 4, 0xFFF).unwrap();
        assert_eq!(b.read_or_group(2, 0b11).unwrap(), [0, 0, 0, 0, 0xFFF]);
        assert_eq!(b.read_or_group(3, 0b01).unwrap(), [0; 5]);
        assert_eq!(b.stats().bitlines_sensed, 128);
    }

    #[test]
    fn errors_propagate() {
        // A rejected write or read returns its error and leaves the cells
        // and the counters as they were.
        let mut b = small();
        b.write_line(0, 1, 4, 0x5A5).unwrap();
        let before = b.stats();
        assert_eq!(
            b.write_line(0, 1, 4, 1 << 12),
            Err(SramError::ValueTooWide { value: 1 << 12, width: 12 })
        );
        assert_eq!(
            b.write_line(8, 1, 4, 0),
            Err(SramError::GroupOutOfRange { group: 8, groups: 8 })
        );
        assert_eq!(b.read_or_group(0, 0b110), Err(SramError::LineOutOfRange { line: 2, lines: 2 }));
        assert_eq!(b.stats(), before);
        assert_eq!(b.read_or_group(0, 0b10).unwrap()[4], 0x5A5);
    }

    #[test]
    fn or_read_is_wired_or() {
        let mut b = small();
        b.write_line(3, 0, 0, 0b1000_0001).unwrap();
        b.write_line(3, 1, 0, 0b0100_0001).unwrap();
        b.write_line(3, 1, 1, 0b0010_0000).unwrap();
        let v = b.read_or_group(3, 0b11).unwrap();
        assert_eq!(v, [0b1100_0001, 0b0010_0000, 0, 0, 0]);
        assert_eq!(b.read_or_group(3, 0b01).unwrap()[0], 0b1000_0001);
    }

    #[test]
    fn or_read_empty_mask_is_zero() {
        let mut b = small();
        b.write_line(0, 0, 0, 0xFFF).unwrap();
        assert_eq!(b.read_or_group(0, 0).unwrap(), [0; 5]);
        let st = b.stats();
        assert_eq!((st.or_reads, st.wordline_activations, st.bitlines_sensed), (1, 0, 64));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut b = small();
        b.write_line(0, 0, 2, 0x77).unwrap();
        b.reset_stats();
        assert_eq!(b.stats(), AccessStats::default());
        assert_eq!(b.read_or_group(0, 1).unwrap()[2], 0x77);
    }

    #[test]
    fn stuck_at_one_forces_bit_high() {
        let mut b = small();
        b.inject_stuck_at(2, 1, 0, 3, true).unwrap();
        assert_eq!(b.read_or_group(2, 0b10).unwrap()[0], 0b1000);
        // Writing 0 cannot clear it.
        b.write_line(2, 1, 0, 0).unwrap();
        assert_eq!(b.read_or_group(2, 0b10).unwrap()[0], 0b1000);
    }

    #[test]
    fn stuck_at_zero_masks_bit() {
        let mut b = small();
        b.write_line(1, 0, 0, 0xFF).unwrap();
        b.inject_stuck_at(1, 0, 0, 4, false).unwrap();
        assert_eq!(b.read_or_group(1, 1).unwrap()[0], 0b1110_1111);
    }

    #[test]
    fn faults_apply_before_wired_or() {
        let mut b = small();
        b.write_line(0, 0, 0, 0b0000_0001).unwrap();
        b.write_line(0, 1, 0, 0b0000_0010).unwrap();
        // Stuck-0 on line 0 bit 0 removes its contribution; a healthy
        // line can still drive other columns.
        b.inject_stuck_at(0, 0, 0, 0, false).unwrap();
        assert_eq!(b.read_or_group(0, 0b11).unwrap()[0], 0b0000_0010);
        // Stuck-1 on an *activated* line always contributes.
        b.inject_stuck_at(0, 1, 0, 7, true).unwrap();
        assert_eq!(b.read_or_group(0, 0b11).unwrap()[0], 0b1000_0010);
        // A stuck-1 line that is not activated contributes nothing.
        assert_eq!(b.read_or_group(0, 0b01).unwrap()[0], 0);
    }

    #[test]
    fn faults_apply_in_every_slot_window() {
        // 24-bit slots straddle the 64-bit words of a 128-column row.
        let geom = BankGeometry::new(4, 128).unwrap();
        let mut b = SramBank::new(geom, GroupLayout::new(2, 24).unwrap()).unwrap();
        b.write_line(1, 0, 2, 0xFF_FFFF).unwrap(); // columns 48..72
        b.inject_stuck_at(1, 0, 2, 17, false).unwrap(); // column 65
        b.inject_stuck_at(1, 1, 4, 23, true).unwrap(); // column 119
        assert_eq!(b.read_or_group(1, 0b11).unwrap(), [0, 0, 0xFD_FFFF, 0, 1 << 23]);
    }

    #[test]
    fn fault_bookkeeping() {
        let mut b = small();
        assert_eq!(b.fault_count(), 0);
        b.inject_stuck_at(0, 0, 0, 0, true).unwrap();
        b.inject_stuck_at(0, 0, 0, 1, false).unwrap();
        // Re-injecting the same cell does not double-count.
        b.inject_stuck_at(0, 0, 0, 0, false).unwrap();
        assert_eq!(b.fault_count(), 2);
        b.clear_faults();
        assert_eq!(b.fault_count(), 0);
        b.write_line(0, 0, 0, 0b0011).unwrap();
        assert_eq!(b.read_or_group(0, 1).unwrap()[0], 0b0011);
    }

    #[test]
    fn inject_out_of_range_errors() {
        let mut b = small();
        assert!(matches!(
            b.inject_stuck_at(8, 0, 0, 0, true),
            Err(SramError::GroupOutOfRange { .. })
        ));
        assert!(matches!(
            b.inject_stuck_at(0, 2, 0, 0, true),
            Err(SramError::LineOutOfRange { .. })
        ));
        assert!(matches!(
            b.inject_stuck_at(0, 0, 5, 0, true),
            Err(SramError::SlotOutOfRange { .. })
        ));
        assert_eq!(
            b.inject_stuck_at(0, 0, 4, 12, true),
            Err(SramError::ColOutOfRange { col: 60, width: 1, cols: 64 })
        );
        assert_eq!(b.fault_count(), 0);
    }
}

use crate::error::SramError;

const WORD_BITS: usize = 64;

/// A dense, bit-packed `rows × cols` bit matrix.
///
/// Rows are stored contiguously in `u64` words (`ceil(cols / 64)` words per
/// row). This is the raw cell array of an [`SramBank`](crate::SramBank); it
/// performs bounds checking but keeps no statistics.
///
/// # Examples
///
/// ```
/// use daism_sram::BitMatrix;
///
/// let mut m = BitMatrix::new(4, 100);
/// m.set(2, 99, true);
/// assert!(m.get(2, 99));
/// assert!(!m.get(2, 98));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let words_per_row = cols.div_ceil(WORD_BITS);
        BitMatrix { rows, cols, words_per_row, data: vec![0; rows * words_per_row] }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn check_row(&self, row: usize) -> Result<(), SramError> {
        if row >= self.rows {
            Err(SramError::RowOutOfRange { row, rows: self.rows })
        } else {
            Ok(())
        }
    }

    #[inline]
    fn check_span(&self, col: usize, width: u32) -> Result<(), SramError> {
        if width > 64 {
            return Err(SramError::WidthTooWide(width));
        }
        if col + width as usize > self.cols {
            return Err(SramError::ColOutOfRange { col, width, cols: self.cols });
        }
        Ok(())
    }

    /// Reads a single bit.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "bit ({row},{col}) out of range");
        let word = self.data[row * self.words_per_row + col / WORD_BITS];
        (word >> (col % WORD_BITS)) & 1 == 1
    }

    /// Writes a single bit.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "bit ({row},{col}) out of range");
        let idx = row * self.words_per_row + col / WORD_BITS;
        let bit = 1u64 << (col % WORD_BITS);
        if value {
            self.data[idx] |= bit;
        } else {
            self.data[idx] &= !bit;
        }
    }

    /// Writes `width` bits of `value` at `(row, col..col+width)`.
    /// Bit 0 of `value` lands in column `col`.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the row, `width > 64`, or
    /// `value` has bits above `width`.
    pub fn write_bits(
        &mut self,
        row: usize,
        col: usize,
        width: u32,
        value: u64,
    ) -> Result<(), SramError> {
        self.check_row(row)?;
        self.check_span(col, width)?;
        if width < 64 && value >> width != 0 {
            return Err(SramError::ValueTooWide { value, width });
        }
        if width == 0 {
            return Ok(());
        }
        let base = row * self.words_per_row;
        let w0 = col / WORD_BITS;
        let off = col % WORD_BITS;
        let lo_bits = (WORD_BITS - off).min(width as usize) as u32;
        let lo_mask = mask64(lo_bits) << off;
        self.data[base + w0] = (self.data[base + w0] & !lo_mask) | ((value << off) & lo_mask);
        if (width as usize) > lo_bits as usize {
            let hi_bits = width - lo_bits;
            let hi_mask = mask64(hi_bits);
            let hi_val = value >> lo_bits;
            self.data[base + w0 + 1] = (self.data[base + w0 + 1] & !hi_mask) | (hi_val & hi_mask);
        }
        Ok(())
    }

    /// Reads `width` bits at `(row, col..col+width)`; bit 0 of the result
    /// comes from column `col`.
    ///
    /// # Errors
    ///
    /// Returns an error if the span exceeds the row or `width > 64`.
    pub fn read_bits(&self, row: usize, col: usize, width: u32) -> Result<u64, SramError> {
        self.check_row(row)?;
        self.check_span(col, width)?;
        Ok(read_span(self.row_words(row), col, width))
    }

    /// The packed words of `row` (`ceil(cols / 64)` of them; unused top
    /// bits are zero). The caller has range-checked `row`.
    #[inline]
    pub(crate) fn row_words(&self, row: usize) -> &[u64] {
        let base = row * self.words_per_row;
        &self.data[base..base + self.words_per_row]
    }
}

/// Cuts `width ≤ 64` bits starting at column `col` out of a row's packed
/// words (bit 0 of the result is column `col`); the span may straddle two
/// words. The caller has range-checked the span.
#[inline]
pub(crate) fn read_span(words: &[u64], col: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let w0 = col / WORD_BITS;
    let off = col % WORD_BITS;
    let lo_bits = (WORD_BITS - off).min(width as usize) as u32;
    let mut out = (words[w0] >> off) & mask64(lo_bits);
    if width > lo_bits {
        out |= (words[w0 + 1] & mask64(width - lo_bits)) << lo_bits;
    }
    out
}

#[inline]
fn mask64(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let m = BitMatrix::new(8, 130);
        assert!(m.data.iter().all(|&w| w == 0));
        assert_eq!(m.rows(), 8);
        assert_eq!(m.cols(), 130);
    }

    #[test]
    fn set_get_single_bits() {
        let mut m = BitMatrix::new(3, 200);
        for col in [0, 63, 64, 127, 128, 199] {
            m.set(1, col, true);
            assert!(m.get(1, col), "col {col}");
            assert!(!m.get(0, col));
        }
        m.set(1, 64, false);
        assert!(!m.get(1, 64));
    }

    #[test]
    fn write_read_roundtrip_aligned() {
        let mut m = BitMatrix::new(2, 128);
        m.write_bits(0, 0, 16, 0xBEEF).unwrap();
        assert_eq!(m.read_bits(0, 0, 16).unwrap(), 0xBEEF);
        m.write_bits(0, 64, 32, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_bits(0, 64, 32).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn write_read_straddles_word_boundary() {
        let mut m = BitMatrix::new(1, 128);
        // 16 bits starting at column 56 straddle words 0 and 1.
        m.write_bits(0, 56, 16, 0xA5C3).unwrap();
        assert_eq!(m.read_bits(0, 56, 16).unwrap(), 0xA5C3);
        // Neighbouring bits untouched.
        assert_eq!(m.read_bits(0, 0, 56).unwrap(), 0);
        assert_eq!(m.read_bits(0, 72, 56).unwrap(), 0);
    }

    #[test]
    fn write_full_64_bit_word_unaligned() {
        let mut m = BitMatrix::new(1, 256);
        m.write_bits(0, 100, 64, u64::MAX).unwrap();
        assert_eq!(m.read_bits(0, 100, 64).unwrap(), u64::MAX);
        assert!(!m.get(0, 99));
        assert!(!m.get(0, 164));
    }

    #[test]
    fn overwrite_clears_old_bits() {
        let mut m = BitMatrix::new(1, 64);
        m.write_bits(0, 8, 8, 0xFF).unwrap();
        m.write_bits(0, 8, 8, 0x01).unwrap();
        assert_eq!(m.read_bits(0, 8, 8).unwrap(), 0x01);
    }

    #[test]
    fn errors_on_out_of_range() {
        let mut m = BitMatrix::new(2, 64);
        assert_eq!(m.read_bits(2, 0, 8), Err(SramError::RowOutOfRange { row: 2, rows: 2 }));
        assert_eq!(
            m.read_bits(0, 60, 8),
            Err(SramError::ColOutOfRange { col: 60, width: 8, cols: 64 })
        );
        assert_eq!(m.read_bits(0, 0, 65), Err(SramError::WidthTooWide(65)));
        assert_eq!(
            m.write_bits(0, 0, 4, 0x10),
            Err(SramError::ValueTooWide { value: 0x10, width: 4 })
        );
    }

    #[test]
    fn zero_width_access_is_noop() {
        let mut m = BitMatrix::new(1, 8);
        m.write_bits(0, 3, 0, 0).unwrap();
        assert_eq!(m.read_bits(0, 3, 0).unwrap(), 0);
        assert_eq!(m.read_bits(0, 0, 8).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        let _ = BitMatrix::new(0, 8);
    }
}

use crate::config::{MultiplierConfig, MultiplierKind, OperandMode};
use daism_num::bits;
use std::fmt;

/// What one wordline of a multiplicand's group stores.
///
/// A *plain* line holds the multiplicand shifted by one position (one
/// partial product); a *pre-computed* line holds the **exact** sum of
/// several shifted copies (PC2/PC3's accuracy-recovery lines).
///
/// # Examples
///
/// ```
/// use daism_core::LineSpec;
///
/// let ab = LineSpec::pre_sum(&[7, 6]); // A+B for an 8-bit mantissa
/// assert_eq!(ab.full_pattern(0b1000_0001), (0b1000_0001 << 7) + (0b1000_0001 << 6));
/// assert_eq!(ab.letter_name(8), "AB");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LineSpec {
    /// Shift amounts whose partial products this line sums, descending.
    shifts: Vec<u32>,
}

impl LineSpec {
    /// A plain partial-product line: multiplicand `<< shift`.
    pub fn plain(shift: u32) -> Self {
        LineSpec { shifts: vec![shift] }
    }

    /// A pre-computed line: exact sum of the partial products at the given
    /// shifts.
    ///
    /// # Panics
    ///
    /// Panics if `shifts` is empty or contains duplicates.
    pub fn pre_sum(shifts: &[u32]) -> Self {
        assert!(!shifts.is_empty(), "a pre-computed line needs at least one shift");
        let mut s = shifts.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.windows(2).for_each(|w| assert!(w[0] != w[1], "duplicate shift {}", w[0]));
        LineSpec { shifts: s }
    }

    /// The shifts this line covers (descending).
    pub fn shifts(&self) -> &[u32] {
        &self.shifts
    }

    /// `true` if this is a single plain partial product.
    pub fn is_plain(&self) -> bool {
        self.shifts.len() == 1
    }

    /// The exact value this line stores for multiplicand `a`
    /// (`Σ a << s`), before any truncation.
    pub fn full_pattern(&self, a: u64) -> u64 {
        self.shifts.iter().map(|&s| a << s).sum()
    }

    /// Paper-style letter name: `A` is the PP of the multiplier's MSB
    /// (shift `n-1`), `B` the next, etc.; pre-computed lines concatenate
    /// (`AB`, `ABC`).
    pub fn letter_name(&self, n: u32) -> String {
        self.shifts.iter().map(|&s| char::from(b'A' + (n - 1 - s) as u8)).collect()
    }
}

impl fmt::Display for LineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_plain() {
            write!(f, "PP<<{}", self.shifts[0])
        } else {
            write!(
                f,
                "presum({})",
                self.shifts.iter().map(|s| format!("<<{s}")).collect::<Vec<_>>().join("+")
            )
        }
    }
}

/// The wordline layout of one multiplicand's group for a given
/// configuration, and the address decoding from a multiplier to a
/// wordline mask.
///
/// This is the heart of the paper: [`LineLayout::decode`] is the "slightly
/// more complex address decoder" of §III-B, and
/// [`LineLayout::stored_pattern`] is what gets written into the SRAM rows.
///
/// Line counts (floating-point mode, mantissa width `n`):
///
/// | config | lines | `_tr` lines | layout |
/// |--------|-------|-------------|--------|
/// | FLA    | `n`   | `n-1`       | `A, B, C, …` (plain PPs) |
/// | PC2    | `n`   | `n-1`       | `A, AB, C, …` (`B` never fires alone — §III-C) |
/// | PC3    | `n+1` | `n`         | `A, AB, AC, ABC, D, …` |
///
/// A truncated config lists one line fewer: its plain shift-0 line (`H`
/// at `n = 8`) would store `a >> n = 0` for every `n`-bit multiplicand,
/// so it has no row. That is how the paper's `PC3_tr` groups fit in 8
/// wordlines for `bfloat16` (Fig. 3's 512 kB bank stores 128×256 kernel
/// elements = 2048 rows / 8 lines). The list is the physical group:
/// [`len`](Self::len) is its height.
///
/// The line list is the one statement of a multiplier; the decoder is
/// derived from it. The *head* is the top `max(precomputed_depth, 1)`
/// multiplier bits (1, 2 or 3 for FLA, PC2, PC3): each head value
/// activates the one line whose shifts are exactly its set bits, or
/// nothing if no line has them. Every bit below the head activates the
/// plain line of its own shift, or nothing if there is none (a truncated
/// config's bit 0, and integer-mode PC2's, whose line holds `AB`).
/// [`decode`](Self::decode),
/// [`expected_active_lines`](Self::expected_active_lines) and the
/// table-less multiplier's chunk split all read these two tables.
///
/// # Examples
///
/// ```
/// use daism_core::{LineLayout, MultiplierConfig, OperandMode};
///
/// let layout = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
/// assert_eq!(layout.len(), 9);
/// // Multiplier 0b1100_0000 (bits A,B set) activates only the AB line:
/// let mask = layout.decode(0b1100_0000);
/// assert_eq!(mask, 0b10); // line index 1 = AB
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineLayout {
    specs: Vec<LineSpec>,
    config: MultiplierConfig,
    mode: OperandMode,
    n: u32,
    /// `b >> head_shift` is the head of multiplier `b`.
    head_shift: u32,
    /// Per head value, the mask of its line (0 when it has none).
    head: [u64; 8],
    /// The bits below the head that drive a plain line.
    plain_bits: u64,
    /// Per plain bit `s`, the index of its line `a << s`.
    plain_line: [u8; 24],
}

impl LineLayout {
    /// Builds the layout for `config` in `mode` at mantissa width `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (the PC3 decode needs at least 4 bits) or
    /// `n > 24` (nothing in the paper goes beyond `float32`).
    pub fn new(config: MultiplierConfig, mode: OperandMode, n: u32) -> Self {
        assert!((4..=24).contains(&n), "mantissa width {n} outside supported range 4..=24");
        // Truncated, the plain shift-0 line would store `a >> n = 0`: it
        // has no row, so the plain lines start at shift 1.
        let lo = u32::from(config.truncate);
        let specs = match (config.kind, mode) {
            (MultiplierKind::Fla, _) => (lo..n).rev().map(LineSpec::plain).collect(),
            (MultiplierKind::Pc2, OperandMode::Fp) => {
                // A, AB, C.. (B dropped: with the implicit one, B never
                // fires without A).
                let mut v = vec![LineSpec::plain(n - 1), LineSpec::pre_sum(&[n - 1, n - 2])];
                v.extend((lo..=n - 3).rev().map(LineSpec::plain));
                v
            }
            (MultiplierKind::Pc3, OperandMode::Fp) => {
                // A, AB, AC, ABC, D.. — every combination contains A.
                let mut v = vec![
                    LineSpec::plain(n - 1),
                    LineSpec::pre_sum(&[n - 1, n - 2]),
                    LineSpec::pre_sum(&[n - 1, n - 3]),
                    LineSpec::pre_sum(&[n - 1, n - 2, n - 3]),
                ];
                v.extend((lo..=n - 4).rev().map(LineSpec::plain));
                v
            }
            (MultiplierKind::Pc2, OperandMode::Int) => {
                // Paper Fig. 2: A..G plain, then AB stored *in place of*
                // the LSB partial product H (whose contribution is lost).
                let mut v: Vec<LineSpec> = (1..n).rev().map(LineSpec::plain).collect();
                v.push(LineSpec::pre_sum(&[n - 1, n - 2]));
                v
            }
            (MultiplierKind::Pc3, OperandMode::Int) => {
                // Reproduction extension (the paper defines PC3 only for
                // fp mode): all seven {A,B,C} subsets get lines, the rest
                // stay plain. Nothing is sacrificed; costs 4 extra lines.
                let mut v = vec![
                    LineSpec::plain(n - 1),
                    LineSpec::plain(n - 2),
                    LineSpec::plain(n - 3),
                    LineSpec::pre_sum(&[n - 1, n - 2]),
                    LineSpec::pre_sum(&[n - 1, n - 3]),
                    LineSpec::pre_sum(&[n - 2, n - 3]),
                    LineSpec::pre_sum(&[n - 1, n - 2, n - 3]),
                ];
                v.extend((lo..=n - 4).rev().map(LineSpec::plain));
                v
            }
        };
        let head_shift = n - config.kind.precomputed_depth().max(1);
        let line_of = |shifts: &[u32]| specs.iter().position(|spec| spec.shifts() == shifts);
        let mut head = [0u64; 8];
        for (v, mask) in head.iter_mut().enumerate().take(1 << (n - head_shift)) {
            let shifts: Vec<u32> =
                (head_shift..n).rev().filter(|&s| (v >> (s - head_shift)) & 1 != 0).collect();
            if let Some(i) = line_of(&shifts) {
                *mask = 1 << i;
            }
        }
        let mut plain_bits = 0u64;
        let mut plain_line = [0u8; 24];
        for s in 0..head_shift {
            if let Some(i) = line_of(&[s]) {
                plain_bits |= 1 << s;
                plain_line[s as usize] = i as u8;
            }
        }
        LineLayout { specs, config, mode, n, head_shift, head, plain_bits, plain_line }
    }

    /// Number of wordlines per group: the physical group height.
    #[inline]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if the layout is empty (never the case for valid configs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The line specifications in wordline order.
    #[inline]
    pub fn specs(&self) -> &[LineSpec] {
        &self.specs
    }

    /// The configuration this layout implements.
    #[inline]
    pub fn config(&self) -> MultiplierConfig {
        self.config
    }

    /// The operand mode.
    #[inline]
    pub fn mode(&self) -> OperandMode {
        self.mode
    }

    /// Mantissa width `n`.
    #[inline]
    pub fn mantissa_width(&self) -> u32 {
        self.n
    }

    /// Width of the stored patterns (`2n`, or `n` when truncated).
    #[inline]
    pub fn stored_width(&self) -> u32 {
        self.config.stored_width(self.n)
    }

    /// The pattern to program on line `index` for multiplicand `a`:
    /// the exact line value, with the low `n` columns dropped when the
    /// configuration truncates (the columns physically don't exist).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `a` is wider than `n` bits.
    pub fn stored_pattern(&self, index: usize, a: u64) -> u64 {
        assert!(bits::width_of(a) <= self.n, "multiplicand {a:#x} wider than {} bits", self.n);
        let full = self.specs[index].full_pattern(a);
        if self.config.truncate {
            full >> self.n
        } else {
            full
        }
    }

    /// Address decode: turns multiplier `b` into the wordline-activation
    /// mask (bit *i* set activates line *i*), implementing the paper's
    /// modified decoder: the head's line plus the plain line of every
    /// set bit below the head (see [`LineLayout`]).
    ///
    /// # Panics
    ///
    /// Panics if `b` is wider than `n` bits, or (in fp mode) if `b` is
    /// non-zero without its leading one set.
    pub fn decode(&self, b: u64) -> u64 {
        assert!(bits::width_of(b) <= self.n, "multiplier {b:#x} wider than {} bits", self.n);
        if self.mode == OperandMode::Fp {
            assert!(
                b == 0 || bits::bit(b, self.n - 1),
                "fp-mode multiplier {b:#x} lacks its leading one"
            );
        }
        let mut mask = self.head[(b >> self.head_shift) as usize];
        let mut plain = b & self.plain_bits;
        while plain != 0 {
            mask |= 1 << self.plain_line[plain.trailing_zeros() as usize];
            plain &= plain - 1;
        }
        mask
    }

    /// `b >> head_shift()` is the head of multiplier `b`: the bits that
    /// together select one line.
    #[inline]
    pub(crate) fn head_shift(&self) -> u32 {
        self.head_shift
    }

    /// The line head value `v` activates, if any.
    pub(crate) fn head_line(&self, v: usize) -> Option<&LineSpec> {
        let mask = self.head[v];
        (mask != 0).then(|| &self.specs[mask.trailing_zeros() as usize])
    }

    /// The multiplier bits below the head that drive a plain line.
    #[inline]
    pub(crate) fn plain_bits(&self) -> u64 {
        self.plain_bits
    }

    /// Number of wordlines `decode(b)` activates.
    pub fn active_lines(&self, b: u64) -> u32 {
        self.decode(b).count_ones()
    }

    /// Expected number of active wordlines over uniformly random
    /// multipliers (fp mode: uniform over mantissas with the leading one
    /// set) — the quantity the energy model charges wordline drive for.
    ///
    /// The head values a multiplier can take are equally likely (in fp
    /// mode only those with the leading one), and each plain bit fires
    /// with probability ½.
    ///
    /// PC3 fires fewer lines than PC2, which fires fewer than FLA: the
    /// paper's §V-D reason #2 for preferring PC3.
    pub fn expected_active_lines(&self) -> f64 {
        let values = 1usize << (self.n - self.head_shift);
        let first = if self.mode == OperandMode::Fp { values / 2 } else { 0 };
        let heads = &self.head[first..values];
        let lit = heads.iter().filter(|&&mask| mask != 0).count();
        lit as f64 / heads.len() as f64 + f64::from(self.plain_bits.count_ones()) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fla_layout_is_plain_descending() {
        let l = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        assert_eq!(l.len(), 8);
        for (i, spec) in l.specs().iter().enumerate() {
            assert!(spec.is_plain());
            assert_eq!(spec.shifts()[0], 7 - i as u32);
        }
        assert_eq!(l.specs()[0].letter_name(8), "A");
        assert_eq!(l.specs()[7].letter_name(8), "H");
    }

    #[test]
    fn pc2_fp_has_no_b_line_and_same_count_as_fla() {
        // §III-C: "The line for PP B will hence never be active and can be
        // left out, reducing memory consumption."
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        assert_eq!(l.len(), 8);
        let names: Vec<String> = l.specs().iter().map(|s| s.letter_name(8)).collect();
        assert_eq!(names, vec!["A", "AB", "C", "D", "E", "F", "G", "H"]);
    }

    #[test]
    fn pc3_fp_layout() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        assert_eq!(l.len(), 9);
        let names: Vec<String> = l.specs().iter().map(|s| s.letter_name(8)).collect();
        assert_eq!(names, vec!["A", "AB", "AC", "ABC", "D", "E", "F", "G", "H"]);
    }

    #[test]
    fn pc2_int_replaces_h_with_ab() {
        // Paper Fig. 2: AB is stored in place of the LSB partial product.
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Int, 8);
        assert_eq!(l.len(), 8);
        let names: Vec<String> = l.specs().iter().map(|s| s.letter_name(8)).collect();
        assert_eq!(names, vec!["A", "B", "C", "D", "E", "F", "G", "AB"]);
    }

    #[test]
    fn fla_decode_reverses_bits() {
        let l = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        // b = 1000_0001: A (line 0) and H (line 7).
        assert_eq!(l.decode(0b1000_0001), 0b1000_0001);
        // b = 1010_0000: A and C -> lines 0 and 2.
        assert_eq!(l.decode(0b1010_0000), 0b0000_0101);
    }

    #[test]
    fn pc2_fp_decode_merges_ab() {
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        // Only A.
        assert_eq!(l.decode(0b1000_0000), 0b01);
        // A and B -> only the AB line.
        assert_eq!(l.decode(0b1100_0000), 0b10);
        // A, B and H -> AB + H (line 7).
        assert_eq!(l.decode(0b1100_0001), 0b1000_0010);
    }

    #[test]
    fn pc3_fp_decode_selects_combination() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        assert_eq!(l.decode(0b1000_0000), 1 << 0); // A
        assert_eq!(l.decode(0b1100_0000), 1 << 1); // AB
        assert_eq!(l.decode(0b1010_0000), 1 << 2); // AC
        assert_eq!(l.decode(0b1110_0000), 1 << 3); // ABC
                                                   // ABC plus D (bit 4 = shift 4 -> line 4 + (4-4) = 4).
        assert_eq!(l.decode(0b1111_0000), (1 << 3) | (1 << 4));
        // A plus H (shift 0 -> line 4 + 4 = 8).
        assert_eq!(l.decode(0b1000_0001), (1 << 0) | (1 << 8));
    }

    #[test]
    fn pc2_int_decode() {
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Int, 8);
        // A and B both -> AB line only (index 7).
        assert_eq!(l.decode(0b1100_0000), 1 << 7);
        // Only B (no leading one needed in int mode).
        assert_eq!(l.decode(0b0100_0000), 1 << 1);
        // H alone: lost (mask 0) — the Fig. 2 trade-off.
        assert_eq!(l.decode(0b0000_0001), 0);
    }

    #[test]
    fn pc3_int_decode_exhaustive_subsets() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Int, 8);
        assert_eq!(l.len(), 12);
        assert_eq!(l.decode(0b1000_0000), 1 << 0); // A
        assert_eq!(l.decode(0b0110_0000), 1 << 5); // BC
        assert_eq!(l.decode(0b1110_0000), 1 << 6); // ABC
        assert_eq!(l.decode(0b0000_1000), 1 << 8); // E? shift 3 -> 7+(4-3)=8
    }

    #[test]
    fn decode_zero_is_zero() {
        for kind in MultiplierKind::ALL {
            for mode in [OperandMode::Fp, OperandMode::Int] {
                let l = LineLayout::new(MultiplierConfig { kind, truncate: false }, mode, 8);
                assert_eq!(l.decode(0), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "leading one")]
    fn fp_decode_requires_leading_one() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        let _ = l.decode(0b0100_0000);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn decode_rejects_wide_operand() {
        let l = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        let _ = l.decode(0x1FF);
    }

    #[test]
    fn stored_pattern_truncation_drops_low_columns() {
        let full = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        let tr = LineLayout::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        let a = 0b1011_0101;
        for i in 0..tr.len() {
            assert_eq!(tr.stored_pattern(i, a), full.stored_pattern(i, a) >> 8, "line {i}");
        }
        // The line truncation drops (H, the last) would store nothing.
        assert_eq!(full.stored_pattern(tr.len(), a) >> 8, 0);
    }

    #[test]
    fn presum_pattern_is_exact_sum() {
        let spec = LineSpec::pre_sum(&[7, 6]);
        let a = 0xB5u64;
        assert_eq!(spec.full_pattern(a), (a << 7) + (a << 6));
    }

    #[test]
    fn expected_active_lines_ordering() {
        // §V-D reason #2: PC3 requires fewer simultaneously active
        // wordlines than PC2, which needs fewer than FLA.
        for n in [8, 24] {
            let fla = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, n);
            let pc2 = LineLayout::new(MultiplierConfig::PC2, OperandMode::Fp, n);
            let pc3 = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, n);
            assert!(pc3.expected_active_lines() < pc2.expected_active_lines());
            assert!(pc2.expected_active_lines() < fla.expected_active_lines());
        }
    }

    #[test]
    fn expected_active_lines_matches_exhaustive_average() {
        for config in MultiplierConfig::ALL {
            for (mode, multipliers) in
                [(OperandMode::Fp, 0x80u64..=0xFF), (OperandMode::Int, 0..=0xFF)]
            {
                let l = LineLayout::new(config, mode, 8);
                let count = multipliers.clone().count() as f64;
                let total: u32 = multipliers.map(|b| l.active_lines(b)).sum();
                let measured = f64::from(total) / count;
                let predicted = l.expected_active_lines();
                assert!(
                    (measured - predicted).abs() < 1e-9,
                    "{config} {mode}: measured {measured}, predicted {predicted}"
                );
            }
        }
    }

    /// Every valid multiplier `b`, ascending (fp mode: zero and the
    /// values with the leading one).
    fn valid_multipliers(l: &LineLayout) -> impl Iterator<Item = u64> {
        let n = l.mantissa_width();
        let lo = if l.mode() == OperandMode::Fp { 1u64 << (n - 1) } else { 1 };
        std::iter::once(0).chain(lo..1 << n)
    }

    /// FNV-1a over the little-endian bytes of `decode(b)` for every valid
    /// multiplier `b`.
    fn decode_fingerprint(l: &LineLayout) -> u64 {
        valid_multipliers(l).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            l.decode(b)
                .to_le_bytes()
                .iter()
                .fold(h, |h, &byte| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
        })
    }

    #[test]
    fn decode_is_pinned_bit_for_bit() {
        // One fingerprint per untruncated (kind, mode) and n = 4..=16. A
        // truncated layout is its untruncated kind's without the trailing
        // shift-0 line, so its decode is the same mask cut to its lines.
        let pins = |kind, mode| -> [u64; 13] {
            match (kind, mode) {
                (MultiplierKind::Fla, OperandMode::Fp) => [
                    0x6253847d38a1f1c5,
                    0xe20c19e41bc875c5,
                    0x419b90ab9770a3c5,
                    0xd0734f65a5c3c9c5,
                    0xf4485ec9d1f5d9c5,
                    0x233be3e83a08b9c5,
                    0x3c28512306c969c5,
                    0xf706e86b027158c5,
                    0xdad36149ab5c01c5,
                    0x274da5880d5353c5,
                    0x24e5b5c15093f5c5,
                    0x08c399dade4bcbc5,
                    0xce49efc556e391c5,
                ],
                (MultiplierKind::Fla, OperandMode::Int) => [
                    0xa50f00a514fb3ba5,
                    0x3e110a68e1f36c25,
                    0xbca7eeb1b8d6d325,
                    0x69ad16acb3ad8325,
                    0x1a743981679e6b25,
                    0xd7ed6e846063e325,
                    0x1fb7ed26b6b61025,
                    0x2427100f4eb96125,
                    0x4f7be21873580125,
                    0x1ea2620f9359bb25,
                    0x0e537d749d26a425,
                    0x6eb5a15fd3040325,
                    0xc4f3484ea846f725,
                ],
                (MultiplierKind::Pc2, OperandMode::Fp) => [
                    0x7107dce726541605,
                    0x8f31b0baaecede45,
                    0x1af01e0b18f2d3c5,
                    0x61119d6412e46dc5,
                    0x1fbc4d690611ddc5,
                    0x4e0d1d093724c1c5,
                    0x1b6213bf25e83ec5,
                    0x9e195adb587929c5,
                    0xcff944c3b6198fc5,
                    0x870484d36cafb3c5,
                    0x9ac53ac0ffd645c5,
                    0x2e4a8ab8ad067fc5,
                    0xabc050b4211e2bc5,
                ],
                (MultiplierKind::Pc2, OperandMode::Int) => [
                    0xd1b025fa79803165,
                    0x22458d8e01cb6ba5,
                    0x097ff0c261c92225,
                    0x9cd8e9f946abdf25,
                    0xaf1e708050325f25,
                    0x396fb8f9293cff25,
                    0x50588cd32e253125,
                    0x8c5f064bb69130a5,
                    0xc6484227c0596025,
                    0x4da8c36485f8dc25,
                    0x54609db9896d1d25,
                    0x74c94953fd950d25,
                    0x34233a2cbac0d325,
                ],
                (MultiplierKind::Pc3, OperandMode::Fp) => [
                    0x184f8b0c97ce0565,
                    0x3288aaf42f7a3945,
                    0x15ffd906153349c5,
                    0xf9beed08796326c5,
                    0x44b7a482a20577c5,
                    0xb19af1968f2dabc5,
                    0x4c9995c423ddeac5,
                    0xffb272473a03adc5,
                    0x063b107b38968ec5,
                    0x7ec0a9f3e120e5c5,
                    0xf42bbca2523bd5c5,
                    0x72970fe387eac1c5,
                    0x77ae674f977071c5,
                ],
                (MultiplierKind::Pc3, OperandMode::Int) => [
                    0x6c57833e067af985,
                    0x97208010673086e5,
                    0x6c3d561764eed6a5,
                    0xcb3cfc1409b3efd5,
                    0xece035d645bdcd65,
                    0x1dcf0cb16efcf8a5,
                    0xa62b334056fbe525,
                    0x05deb9cde0572325,
                    0xb42bbbd412397225,
                    0x0447d638792a9925,
                    0x4687423e3da8be25,
                    0xdb00bdb93d306e25,
                    0x7af848dc22cd8e25,
                ],
            }
        };
        for config in MultiplierConfig::ALL {
            for mode in [OperandMode::Fp, OperandMode::Int] {
                for (n, &pin) in (4..=16).zip(&pins(config.kind, mode)) {
                    let full =
                        LineLayout::new(MultiplierConfig { truncate: false, ..config }, mode, n);
                    if !config.truncate {
                        assert_eq!(decode_fingerprint(&full), pin, "{config} {mode} n={n}");
                        continue;
                    }
                    let l = LineLayout::new(config, mode, n);
                    let lines = bits::mask(l.len() as u32);
                    for b in valid_multipliers(&l) {
                        assert_eq!(l.decode(b), full.decode(b) & lines, "{config} {mode} b={b:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn fp32_width_layouts() {
        let l = LineLayout::new(MultiplierConfig::PC3, OperandMode::Fp, 24);
        assert_eq!(l.len(), 25);
        assert_eq!(l.stored_width(), 48);
        let tr = LineLayout::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 24);
        assert_eq!(tr.stored_width(), 24);
    }

    #[test]
    fn truncated_layouts_drop_zero_h() {
        // PC3_tr at bf16: H is identically zero, so 9 -> 8 wordlines (the
        // paper's group height).
        let pc3tr = LineLayout::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        assert_eq!(pc3tr.len(), 8);
        // PC2_tr: 8 -> 7. FLA untruncated: every line stays.
        let pc2tr = LineLayout::new(MultiplierConfig::PC2_TR, OperandMode::Fp, 8);
        assert_eq!(pc2tr.len(), 7);
        let fla = LineLayout::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        assert_eq!(fla.len(), 8);
    }

    #[test]
    fn letter_names_fp32() {
        let l = LineLayout::new(MultiplierConfig::PC2, OperandMode::Fp, 24);
        assert_eq!(l.specs()[0].letter_name(24), "A");
        assert_eq!(l.specs()[1].letter_name(24), "AB");
        assert_eq!(l.specs()[23].letter_name(24), "X");
    }
}

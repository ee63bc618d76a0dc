//! The decoded B-tile form of [`ApproxFpMul`](crate::ApproxFpMul): the
//! one-word lane layout, the row decode that fills it and the two MACs
//! that consume it — the product-table MAC (mantissas up to 8 bits) and
//! the chunk-table MAC (wider ones).
//!
//! # Layout
//!
//! A `w`-wide tile row is one slab of [`decoded_stride`]`(w) = 2w + 4`
//! words, `[word; w] [col; w] kept exotic emin emax`:
//!
//! * the `kept` normal lanes sit at the front of both arrays. A lane's
//!   word is the `f32` bits of its format-rounded value — exactly
//!   `FpScalar::from_f32(b).to_f32().to_bits()`: sign, biased exponent
//!   and the format's fraction bits, all at their `f32` positions;
//! * the columns of the `exotic` lanes — Inf/NaN, or a nonzero `f32`
//!   that flushes to format zero — sit at the back of the column array.
//!   They take the exact side logic on the tile's raw values;
//! * `emin` / `emax` are the least and greatest biased exponent field
//!   of the kept words (`255` / `0` when nothing is kept). They bound
//!   the exponent of every product of the row, which decides the encode
//!   (see [`encode_product`]).
//!
//! Zero lanes are dropped: the MAC never visits them.
//!
//! # Kernels
//!
//! The decode comes in a portable form and an AVX-512F form; the two
//! product MACs have one AVX-512F kernel each here, and their one
//! portable form is the lane MAC of `ApproxFpMul` (`mac_lanes`), which
//! serves every other host and every other row. The AVX-512F
//! forms are compiled with the default `simd` feature on x86-64 and
//! chosen by runtime detection. Callers pass `simd: bool` to ask for
//! the detected kernel, so tests can drive both; the two write the same
//! slab words and the same C bits (pinned by the tile tests in `fp.rs`).
//!
//! * **Decode** ([`LaneDecoder::decode_row`]) rounds on the IEEE bits,
//!   so the rounding carry lands in the exponent field by itself, and
//!   classifies each lane from its exponent fields. The portable form
//!   compacts branch-free; the AVX-512 form compress-stores 16 lanes at
//!   a time (`vpcompressd`) and tracks the exponent range in vector
//!   min/max registers.
//! * **Table MAC** ([`mac_table`]) adds one product per kept lane into
//!   its C column: the pre-normalised product-table entry of the lane's
//!   mantissa, plus two integer adds (see [`encode_product`]). It
//!   gathers 16 table entries (`vpgatherdd`), gathers the C values, adds
//!   and scatters them back; columns are unique within a row, so the
//!   scatter order cannot matter. It takes the in-range rows of a
//!   product-table multiplier (bf16).
//! * **Chunk MAC** ([`mac_chunks`]) serves the chunk-table widths (fp16,
//!   tf32, truncated fp32: every width whose read-out fits in 32 bits).
//!   It builds the multiplicand's chunk tables in registers per call —
//!   the head's 8 entries from one `vpmuludq` by the plan's head
//!   coefficients, each 16-entry plain table from four masked ORs —
//!   then reads each lane's wired-OR product as one `vpermd` per chunk,
//!   ORed, and pre-normalises it in vector form. Both encodes run
//!   there: the two-add for in-range rows, the select encode (saturate
//!   and flush as mask blends) for the rest. The C update is the table
//!   MAC's gather, add and scatter.
//!
//! The only `unsafe` is in the AVX-512 module below: the intrinsic
//! calls and the `target_feature` call contract.

use crate::mantissa::ChunkPlan;
use daism_num::FpFormat;

/// The `f32` sign bit.
const SIGN: u32 = 0x8000_0000;
/// A word's sign and exponent fields.
const SIGN_EXP: u32 = 0xFF80_0000;
/// The implicit leading one at its `f32` position.
const LEAD: u32 = 0x0080_0000;

/// Which decoded-tile kernels this process runs — the row decode, the
/// product-table MAC (bf16) and the chunk-table MAC (fp16, tf32,
/// truncated fp32): `"avx512"` when the AVX-512 kernels are compiled in
/// (feature `simd`, x86-64) and the host supports AVX-512F,
/// `"portable"` otherwise. Portable hosts, and fp32 without truncation
/// everywhere, run the one portable lane MAC.
pub fn tile_kernel() -> &'static str {
    if avx512::available() {
        "avx512"
    } else {
        "portable"
    }
}

/// Row-slab stride of the decoded form for a `w`-wide tile.
pub(crate) fn decoded_stride(w: usize) -> usize {
    2 * w + 4
}

/// One row slab of a decoded tile.
pub(crate) struct DecodedRow<'a> {
    /// The kept lanes' words.
    pub(crate) words: &'a [u32],
    /// The kept lanes' columns.
    pub(crate) cols: &'a [u32],
    /// The exotic lanes' columns.
    pub(crate) exotic: &'a [u32],
    /// Least biased exponent field of the kept words.
    pub(crate) emin: u32,
    /// Greatest biased exponent field of the kept words.
    pub(crate) emax: u32,
}

impl<'a> DecodedRow<'a> {
    /// Row `r` of the slabs of a `w`-wide tile.
    pub(crate) fn new(slabs: &'a [u32], w: usize, r: usize) -> Self {
        let stride = decoded_stride(w);
        let slab = &slabs[r * stride..(r + 1) * stride];
        let (lanes, meta) = slab.split_at(2 * w);
        let (words, cols) = lanes.split_at(w);
        let (kept, exotic) = (meta[0] as usize, meta[1] as usize);
        DecodedRow {
            words: &words[..kept],
            cols: &cols[..kept],
            exotic: &cols[w - exotic..],
            emin: meta[2],
            emax: meta[3],
        }
    }
}

/// One product of a kept lane, when the whole row is in range: the
/// lane's `word`, the multiplicand's `aword = (sign_x << 31) + (exp_x <<
/// 23)` (wrapping) and the pre-normalised read-out `norm` of the two
/// mantissas ([`prenormalise`](crate::mantissa::prenormalise): the
/// renormalise increment in bit 23, the fraction below it).
///
/// Exact when the product's exponent `exp_x + exp_b + (norm >> 23)` is
/// a normal exponent of the format — what the row's `emin`/`emax` check
/// establishes for every lane at once: the biased exponent fields then
/// sum to a value in `[1, 254]`, so no carry reaches bit 31, and the two
/// sign bits add as their XOR.
#[inline]
pub(crate) fn encode_product(word: u32, aword: u32, norm: u32) -> u32 {
    (word & SIGN_EXP).wrapping_add(aword).wrapping_add(norm)
}

/// A kept word's mantissa with its leading one, `24 - shift` bits wide:
/// the fraction under the implicit one, shifted down to the format.
#[inline]
pub(crate) fn word_mantissa(word: u32, shift: u32) -> u32 {
    ((word & 0x7F_FFFF) | LEAD) >> shift
}

/// Multiply-accumulates a run of kept lanes into C through the bound
/// pre-normalised product row `norm` on AVX-512F: `c[col] +=
/// encode_product(word, aword, norm[mantissa(word)])` per lane. Only
/// valid when every product of the run is in range (see
/// [`encode_product`]). Returns `false` and leaves `c` alone unless
/// `simd` asks for the kernel and the host has it; the caller then runs
/// the portable lane MAC, which gives the same bits.
///
/// # Panics
///
/// Panics if `norm` is not a `2^n`-entry row, or a column is out of
/// range for `c`.
pub(crate) fn mac_table(
    norm: &[u32],
    aword: u32,
    words: &[u32],
    cols: &[u32],
    c: &mut [f32],
    simd: bool,
) -> bool {
    simd && avx512::mac_table(norm, aword, words, cols, c)
}

/// How the products of one decoded tile row are encoded from their
/// pre-normalised read-outs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Encode {
    /// Every product of the row is a normal of the format: two integer
    /// adds with this multiplicand word ([`encode_product`]).
    TwoAdd(u32),
    /// Some products may saturate or flush: the per-lane select encode,
    /// with the multiplicand's sign (at the `f32` sign position) and
    /// exponent.
    Select { xsign: u32, xexp: i32 },
}

/// Multiply-accumulates a run of kept lanes into C through the chunk
/// tables of multiplicand mantissa `a` on AVX-512F: `c[col] +=` the
/// product of `a` and the lane's mantissa, encoded as `encode` says
/// (the select encode saturates above and flushes below the format's
/// normal exponents `exp_range = (min_exp, max_exp)`).
/// The tables are built in vector registers straight from `plan`, and
/// each lane's read-out is one `vpermd` lookup per chunk, ORed, then
/// [`prenormalise`](crate::mantissa::prenormalise)d in vector form.
/// Returns `false` and leaves `c` alone unless `simd` asks for the
/// kernel, the host has it and the plan's read-out fits in 32 bits
/// (every truncated width, and full widths up to 16 bits); the caller
/// then runs the portable lane MAC, which gives the same bits.
///
/// # Panics
///
/// Panics if a column is out of range for `c`.
pub(crate) fn mac_chunks(
    plan: &ChunkPlan,
    a: u64,
    encode: Encode,
    exp_range: (i32, i32),
    row: &DecodedRow<'_>,
    c: &mut [f32],
    simd: bool,
) -> bool {
    simd && plan.fits_u32() && avx512::mac_chunks(plan, a, encode, exp_range, row, c)
}

/// [`FpScalar::from_f32`](daism_num::FpScalar::from_f32) into an
/// `f32`-encodable format, computed straight from the `f32` bits for
/// the tile decode. The per-format constants are derived once per tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneDecoder {
    /// Low bits of the 24-bit `f32` significand the format drops.
    shift: u32,
    /// `2^(shift-1) - 1`: the round-half-down bias (0 when nothing is
    /// dropped).
    half_minus_one: u32,
    /// `1` when bits are dropped: the kept LSB breaks ties to even.
    odd: u32,
    /// Biased exponent fields of the format's normals: `lo..=hi`.
    lo: u32,
    hi: u32,
}

/// One B element as the lane decoder reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedLane {
    /// The `f32` bits of the format-rounded value (meaningful for
    /// normals only).
    pub(crate) word: u32,
    /// A `Normal` value of the format: a kept lane.
    pub(crate) normal: bool,
    /// Needs the exact side logic: Inf/NaN, or a nonzero `f32` that
    /// flushes to format zero.
    pub(crate) exotic: bool,
}

impl LaneDecoder {
    /// The decoder of `format`.
    ///
    /// # Panics
    ///
    /// Panics if `format`'s normals are not all `f32`-encodable.
    pub(crate) fn new(format: FpFormat) -> Self {
        let width = format.mantissa_width();
        assert!(
            width <= 24 && format.min_exp() >= -126 && format.max_exp() <= 127,
            "lane decode needs an f32-encodable format"
        );
        let shift = 24 - width;
        LaneDecoder {
            shift,
            half_minus_one: if shift == 0 { 0 } else { (1 << (shift - 1)) - 1 },
            odd: (shift != 0) as u32,
            lo: (format.min_exp() + 127) as u32,
            hi: (format.max_exp() + 127) as u32,
        }
    }

    /// Decodes one `f32`'s bits.
    #[inline]
    pub(crate) fn decode(&self, bits: u32) -> DecodedLane {
        let mag = bits & !SIGN;
        let e = mag >> 23;
        // Round to nearest, ties to even, on the whole magnitude: adding
        // `half - 1` plus the kept LSB carries out of the dropped bits
        // exactly when they exceed half, or equal it with an odd kept
        // part, and a carry out of the fraction lands in the exponent
        // field (1.11…1 → 10.0). The leading one stands in for the kept
        // LSB when the format keeps no fraction bits.
        let lsb = ((mag | LEAD) >> self.shift) & self.odd;
        let rounded = (mag + self.half_minus_one + lsb) & (u32::MAX << self.shift);
        let re = (rounded >> 23) & 0xFF;
        // `e == 0` is zero or an f32 subnormal (flushed); `e == 0xFF` is
        // Inf/NaN; rounded exponents outside the format saturate or
        // flush. Non-short-circuit `&` keeps the classification
        // branch-free.
        let normal = (e != 0) & (e != 0xFF) & (re >= self.lo) & (re <= self.hi);
        DecodedLane { word: (bits & SIGN) | rounded, normal, exotic: !normal & (mag != 0) }
    }

    /// Decodes one tile row into its slab (see the module docs). `simd`
    /// asks for the AVX-512 kernel when the host has it; both fill the
    /// same words, columns, counts and exponent range.
    ///
    /// # Panics
    ///
    /// Panics if `slab` is not `decoded_stride(row.len())` words.
    pub(crate) fn decode_row(&self, row: &[f32], slab: &mut [u32], simd: bool) {
        let w = row.len();
        assert_eq!(slab.len(), decoded_stride(w), "decoded row slab");
        let (lanes, meta) = slab.split_at_mut(2 * w);
        let (words, cols) = lanes.split_at_mut(w);
        let done = simd && avx512::decode_row(self, row, words, cols, meta);
        if !done {
            self.decode_row_portable(row, words, cols, meta);
        }
    }

    /// The portable decode. The compaction is branch-free: every lane is
    /// written to the next free slot on both ends and the counts advance
    /// by its class. A speculative write lands on a slot that a later
    /// lane of that class overwrites, on a slot past the final count, or
    /// (when the two ends meet) carries the same column as the real
    /// write, since `kept + exotic` never exceeds the lanes seen.
    fn decode_row_portable(
        &self,
        row: &[f32],
        words: &mut [u32],
        cols: &mut [u32],
        meta: &mut [u32],
    ) {
        let w = row.len();
        let (mut kept, mut exotic) = (0usize, 0usize);
        for (j, &bv) in row.iter().enumerate() {
            let lane = self.decode(bv.to_bits());
            cols[w - 1 - exotic] = j as u32;
            exotic += lane.exotic as usize;
            words[kept] = lane.word;
            cols[kept] = j as u32;
            kept += lane.normal as usize;
        }
        let (emin, emax) = words[..kept].iter().fold((0xFF, 0), |(lo, hi), &word| {
            let e = (word >> 23) & 0xFF;
            (e.min(lo), e.max(hi))
        });
        meta.copy_from_slice(&[kept as u32, exotic as u32, emin, emax]);
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx512 {
    //! The runtime-gated AVX-512F kernels. Each entry point checks
    //! [`available`] before it calls its `target_feature` kernel, and
    //! returns `false` (nothing done) on a host without AVX-512F.
    //! Every load, store, gather and scatter is masked to lanes whose
    //! addresses the surrounding slice bounds prove in range.
    use super::{DecodedRow, Encode, LaneDecoder, LEAD, SIGN, SIGN_EXP};
    use crate::mantissa::{ChunkPlan, CHUNK_BITS, MAX_CHUNKS};
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// `(shift, mask)` that index a pre-normalised product row of `2^n`
    /// entries by a word's mantissa: `word_mantissa(word, shift) & mask`
    /// (the mask only proves the index in range).
    fn table_index(norm: &[u32]) -> (u32, u32) {
        assert!(
            norm.len().is_power_of_two() && norm.len() <= 1 << 24,
            "a product row has 2^n entries, n <= 24"
        );
        (24 - norm.len().trailing_zeros(), norm.len() as u32 - 1)
    }

    /// `true` when the host supports AVX-512F.
    pub(super) fn available() -> bool {
        static AVX512: OnceLock<bool> = OnceLock::new();
        *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }

    /// The mask of the first `min(len, 16)` lanes.
    #[inline]
    fn lanes(len: usize) -> __mmask16 {
        if len >= 16 {
            0xFFFF
        } else {
            (1u16 << len) - 1
        }
    }

    /// [`LaneDecoder::decode_row`] on AVX-512F; `false` without it.
    pub(super) fn decode_row(
        dec: &LaneDecoder,
        row: &[f32],
        words: &mut [u32],
        cols: &mut [u32],
        meta: &mut [u32],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: AVX-512F support was detected at runtime just above.
        let decoded = unsafe { decode_row_avx512(dec, row, words, cols) };
        meta.copy_from_slice(&decoded);
        true
    }

    /// Returns `[kept, exotic, emin, emax]`.
    #[target_feature(enable = "avx512f")]
    fn decode_row_avx512(
        dec: &LaneDecoder,
        row: &[f32],
        words: &mut [u32],
        cols: &mut [u32],
    ) -> [u32; 4] {
        let w = row.len();
        assert!(words.len() >= w && cols.len() >= w, "decode row slab too short");
        let sign = _mm512_set1_epi32(SIGN as i32);
        let lead = _mm512_set1_epi32(LEAD as i32);
        let exp_field = _mm512_set1_epi32(0xFF);
        let half_minus_one = _mm512_set1_epi32(dec.half_minus_one as i32);
        let odd = _mm512_set1_epi32(dec.odd as i32);
        let keep = _mm512_set1_epi32((u32::MAX << dec.shift) as i32);
        let shift = _mm512_set1_epi32(dec.shift as i32);
        let (lo, hi) = (_mm512_set1_epi32(dec.lo as i32), _mm512_set1_epi32(dec.hi as i32));
        let zero = _mm512_setzero_si512();
        let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let (mut emin, mut emax) = (exp_field, zero);
        let (mut kept, mut exotic) = (0usize, 0usize);
        for j in (0..w).step_by(16) {
            let k = lanes(w - j);
            // SAFETY: `k` selects lanes `j..min(j + 16, w)`, all inside
            // `row`; masked-off lanes are not read.
            let bits = unsafe { _mm512_maskz_loadu_epi32(k, row.as_ptr().add(j).cast()) };
            // The scalar `LaneDecoder::decode`, sixteen lanes at a time.
            let mag = _mm512_andnot_si512(sign, bits);
            let e = _mm512_srli_epi32::<23>(mag);
            let lsb = _mm512_and_si512(_mm512_srlv_epi32(_mm512_or_si512(mag, lead), shift), odd);
            let rounded = _mm512_and_si512(
                _mm512_add_epi32(_mm512_add_epi32(mag, half_minus_one), lsb),
                keep,
            );
            let re = _mm512_and_si512(_mm512_srli_epi32::<23>(rounded), exp_field);
            let finite = _mm512_mask_cmpneq_epi32_mask(k, e, zero);
            let finite = _mm512_mask_cmpneq_epi32_mask(finite, e, exp_field);
            let normal = _mm512_mask_cmpge_epu32_mask(finite, re, lo);
            let normal = _mm512_mask_cmple_epu32_mask(normal, re, hi);
            let nonzero = _mm512_mask_test_epi32_mask(k, mag, mag);
            let word = _mm512_or_si512(rounded, _mm512_and_si512(bits, sign));
            let col = _mm512_add_epi32(iota, _mm512_set1_epi32(j as i32));
            // SAFETY: each compress store writes `normal.count_ones()`
            // consecutive words from `kept`. Every lane before `j` added
            // at most one to `kept`, so `kept <= j`, and at most
            // `min(16, w - j)` lanes are selected: the writes end at or
            // before `w`, inside `words` and `cols` (asserted above).
            unsafe {
                _mm512_mask_compressstoreu_epi32(words.as_mut_ptr().add(kept).cast(), normal, word);
                _mm512_mask_compressstoreu_epi32(cols.as_mut_ptr().add(kept).cast(), normal, col);
            }
            kept += normal.count_ones() as usize;
            emin = _mm512_mask_min_epu32(emin, normal, emin, re);
            emax = _mm512_mask_max_epu32(emax, normal, emax, re);
            // Exotic lanes are rare: their columns go to the back, in
            // lane order, as the portable decode writes them.
            let mut rare = nonzero & !normal;
            while rare != 0 {
                exotic += 1;
                cols[w - exotic] = (j + rare.trailing_zeros() as usize) as u32;
                rare &= rare - 1;
            }
        }
        [kept as u32, exotic as u32, _mm512_reduce_min_epu32(emin), _mm512_reduce_max_epu32(emax)]
    }

    /// [`super::mac_table`] on AVX-512F; `false` without it.
    pub(super) fn mac_table(
        norm: &[u32],
        aword: u32,
        words: &[u32],
        cols: &[u32],
        c: &mut [f32],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: AVX-512F support was detected at runtime just above.
        unsafe { mac_table_avx512(norm, aword, words, cols, c) };
        true
    }

    #[target_feature(enable = "avx512f")]
    fn mac_table_avx512(norm: &[u32], aword: u32, words: &[u32], cols: &[u32], c: &mut [f32]) {
        let (shift, mask) = table_index(norm);
        let lead = _mm512_set1_epi32(LEAD as i32);
        let shift = _mm512_set1_epi32(shift as i32);
        let mask = _mm512_set1_epi32(mask as i32);
        let aword = _mm512_set1_epi32(aword as i32);
        mac_runs(words, cols, c, |k, w| {
            // `word_mantissa(w, shift) & mask`: the exponent bits the
            // shift leaves above the leading one fall outside the mask.
            let idx = _mm512_and_si512(_mm512_srlv_epi32(_mm512_or_si512(w, lead), shift), mask);
            // SAFETY: every lane of `idx` is at most `mask = norm.len() -
            // 1` (the AND above), so each selected gather reads inside
            // `norm`.
            let e = unsafe {
                _mm512_mask_i32gather_epi32::<4>(
                    _mm512_setzero_si512(),
                    k,
                    idx,
                    norm.as_ptr().cast(),
                )
            };
            two_add(w, aword, e)
        });
    }

    /// Runs `product(k, words)` over the kept lanes 16 at a time (`k`
    /// masks the tail) and adds each product's `f32` bits into its C
    /// column: a C gather, `vaddps` and a scatter.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mac_runs(
        words: &[u32],
        cols: &[u32],
        c: &mut [f32],
        mut product: impl FnMut(__mmask16, __m512i) -> __m512i,
    ) {
        let len = words.len().min(cols.len());
        debug_assert_eq!(words.len(), cols.len(), "one column per kept word");
        // Gather and scatter offsets are signed 32-bit lanes.
        let width = _mm512_set1_epi32(c.len().min(i32::MAX as usize) as i32);
        for j in (0..len).step_by(16) {
            let k = lanes(len - j);
            // SAFETY: `k` selects lanes `j..min(j + 16, len)`, inside both
            // `words` and `cols`; masked-off lanes are not read.
            let (w, col) = unsafe {
                (
                    _mm512_maskz_loadu_epi32(k, words.as_ptr().add(j).cast()),
                    _mm512_maskz_loadu_epi32(k, cols.as_ptr().add(j).cast()),
                )
            };
            // The scatter below writes through these offsets: every
            // selected column must address `c`. Decode builds them below
            // the tile width, which the caller matched to `c`.
            assert_eq!(_mm512_mask_cmplt_epu32_mask(k, col, width), k, "tile column out of range");
            let p = product(k, w);
            // SAFETY: every selected column is non-negative and below
            // `c.len()` (asserted above), so the gather reads and the
            // scatter writes stay inside `c`. Columns are distinct within
            // a tile row, so no two lanes write one element and the
            // scatter order cannot change the result.
            unsafe {
                let cv = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), k, col, c.as_ptr());
                let sum = _mm512_add_ps(cv, _mm512_castsi512_ps(p));
                _mm512_mask_i32scatter_ps::<4>(c.as_mut_ptr(), k, col, sum);
            }
        }
    }

    /// [`encode_product`](super::encode_product) on 16 lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn two_add(w: __m512i, aword: __m512i, norm: __m512i) -> __m512i {
        let sign_exp = _mm512_and_si512(w, _mm512_set1_epi32(SIGN_EXP as i32));
        _mm512_add_epi32(_mm512_add_epi32(sign_exp, aword), norm)
    }

    /// Lanes `v` of a 16-entry plain chunk table whose bit `i` is set:
    /// `BIT_LANES[i]` masks the entries that OR in line `i`.
    const BIT_LANES: [__mmask16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

    /// Multiplicand `a`'s chunk tables in registers, as `u32` entries:
    /// the head in the low 8 lanes of the first vector, then the `chunks`
    /// plain tables of 16 (the rest zero). Bit-identical to
    /// `plan.tables(a)` when the plan's read-out fits in 32 bits.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn chunk_tables(plan: &ChunkPlan, a: u64) -> (__m512i, [__m512i; MAX_CHUNKS]) {
        let [c0, c1, c2, c3, c4, c5, c6, c7] = plan.head_coeffs.map(|c| c as i64);
        // `a · coeff` as 64-bit products (`vpmuludq`: both factors are
        // below 2^24), shifted down by the dropped columns and narrowed:
        // each head entry fits 32 bits when the read-out does.
        let coeffs = _mm512_setr_epi64(c0, c1, c2, c3, c4, c5, c6, c7);
        let products = _mm512_mul_epu32(_mm512_set1_epi64(a as i64), coeffs);
        let shifted = _mm512_srlv_epi64(products, _mm512_set1_epi64(plan.drop as i64));
        let head = _mm512_zextsi256_si512(_mm512_cvtepi64_epi32(shifted));
        let mut plain = [_mm512_setzero_si512(); MAX_CHUNKS];
        for (j, table) in plain.iter_mut().enumerate().take(plan.chunks) {
            // `T[v]` is the OR of the lines of the set bits of `v`: one
            // masked OR per bit of the chunk.
            for (i, &bit_lanes) in BIT_LANES.iter().enumerate() {
                let line = plan.plain_line(a, j as u32 * CHUNK_BITS + i as u32);
                *table =
                    _mm512_mask_or_epi32(*table, bit_lanes, *table, _mm512_set1_epi32(line as i32));
            }
        }
        (head, plain)
    }

    /// [`super::mac_chunks`] on AVX-512F; `false` without it. The caller
    /// has checked that the read-out fits in 32 bits.
    pub(super) fn mac_chunks(
        plan: &ChunkPlan,
        a: u64,
        encode: Encode,
        exp_range: (i32, i32),
        row: &DecodedRow<'_>,
        c: &mut [f32],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: AVX-512F support was detected at runtime just above.
        unsafe { mac_chunks_avx512(plan, a, encode, exp_range, row, c) };
        true
    }

    #[target_feature(enable = "avx512f")]
    fn mac_chunks_avx512(
        plan: &ChunkPlan,
        a: u64,
        encode: Encode,
        (min_exp, max_exp): (i32, i32),
        row: &DecodedRow<'_>,
        c: &mut [f32],
    ) {
        let (words, cols) = (row.words, row.cols);
        debug_assert!(plan.fits_u32(), "chunk read-out wider than a u32 lane");
        let (head, plain) = chunk_tables(plan, a);
        let plain = &plain[..plan.chunks];
        let n = plan.n;
        let set1 = |v: u32| _mm512_set1_epi32(v as i32);
        let (fraction_bits, lead, one) = (set1(0x7F_FFFF), set1(LEAD), set1(1));
        // `24 - n` drops a word's fraction to the format's mantissa, and
        // lifts a read-out's fraction back to the `f32` position.
        let (shift, head_shift) = (set1(24 - n), set1(plan.head_shift));
        // `prenormalise`: the top read-out column (`n - 1` truncated,
        // `2n - 1` full) is the renormalise shift `t`; the mantissa is
        // `raw << (1 - t)` truncated or `raw >> (n - 1 + t)` full, and
        // its fraction moves to the `f32` position.
        let truncate = plan.drop != 0;
        let top = set1(if truncate { n - 1 } else { 2 * n - 1 });
        let (n_minus_one, frac) = (set1(n - 1), set1((1 << (n - 1)) - 1));
        let norm_of = |w: __m512i| {
            // `word_mantissa(w, 24 - n)`: `n` bits, nothing above.
            let fraction = _mm512_and_si512(w, fraction_bits);
            let m = _mm512_srlv_epi32(_mm512_or_si512(fraction, lead), shift);
            // `vpermd` reads the low 4 index bits: the head index is at
            // most 7 and each plain chunk is the next 4 bits of `m`
            // (head bits in the top chunk index entries without lines).
            let mut raw = _mm512_permutexvar_epi32(_mm512_srlv_epi32(m, head_shift), head);
            let mut idx = m;
            for &table in plain {
                raw = _mm512_or_si512(raw, _mm512_permutexvar_epi32(idx, table));
                idx = _mm512_srli_epi32::<4>(idx);
            }
            let t = _mm512_and_si512(_mm512_srlv_epi32(raw, top), one);
            let man = if truncate {
                _mm512_sllv_epi32(raw, _mm512_sub_epi32(one, t))
            } else {
                _mm512_srlv_epi32(raw, _mm512_add_epi32(n_minus_one, t))
            };
            let fraction = _mm512_sllv_epi32(_mm512_and_si512(man, frac), shift);
            _mm512_or_si512(_mm512_slli_epi32::<23>(t), fraction)
        };
        match encode {
            Encode::TwoAdd(aword) => {
                let aword = set1(aword);
                mac_runs(words, cols, c, |_, w| two_add(w, aword, norm_of(w)));
            }
            Encode::Select { xsign, xexp } => {
                let (sign_bit, exp_field) = (set1(SIGN), set1(0xFF));
                let (xsign, xexp) = (set1(xsign), set1(xexp as u32));
                let (hi, lo) = (set1((max_exp + 127) as u32), set1((min_exp + 127) as u32));
                let inf = set1(0x7F80_0000);
                mac_runs(words, cols, c, |_, w| {
                    let norm = norm_of(w);
                    // The biased product exponent `exp + 127`.
                    let exp_field_w = _mm512_and_si512(_mm512_srli_epi32::<23>(w), exp_field);
                    let biased = _mm512_add_epi32(
                        _mm512_add_epi32(exp_field_w, _mm512_srli_epi32::<23>(norm)),
                        xexp,
                    );
                    let sign = _mm512_and_si512(_mm512_xor_si512(w, xsign), sign_bit);
                    let normal = _mm512_or_si512(
                        _mm512_or_si512(sign, _mm512_slli_epi32::<23>(biased)),
                        _mm512_and_si512(norm, fraction_bits),
                    );
                    // `encode_normal_f32`'s saturate and flush as blends;
                    // the two masks never overlap.
                    let saturate = _mm512_cmpgt_epi32_mask(biased, hi);
                    let flush = _mm512_cmplt_epi32_mask(biased, lo);
                    let p = _mm512_mask_mov_epi32(normal, flush, sign);
                    _mm512_mask_mov_epi32(p, saturate, _mm512_or_si512(sign, inf))
                });
            }
        }
    }

    /// The in-register chunk tables of `a`, stored to arrays: the head's
    /// 8 entries and `plan.chunks` plain tables of 16.
    #[cfg(test)]
    pub(super) fn chunk_tables_of(plan: &ChunkPlan, a: u64) -> Option<([u32; 8], Vec<[u32; 16]>)> {
        if !available() {
            return None;
        }
        // SAFETY: AVX-512F support was detected at runtime just above.
        Some(unsafe { chunk_tables_stored(plan, a) })
    }

    #[cfg(test)]
    #[target_feature(enable = "avx512f")]
    fn chunk_tables_stored(plan: &ChunkPlan, a: u64) -> ([u32; 8], Vec<[u32; 16]>) {
        let store = |v: __m512i| {
            let mut out = [0u32; 16];
            // SAFETY: `out` holds exactly the 16 lanes the store writes.
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), v) };
            out
        };
        let (head, plain) = chunk_tables(plan, a);
        let head = store(head);
        assert!(head[8..].iter().all(|&e| e == 0), "head lanes 8..16 are zero");
        let head: [u32; 8] = head[..8].try_into().expect("8 head entries");
        (head, plain[..plan.chunks].iter().map(|&t| store(t)).collect())
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod avx512 {
    //! Without the `simd` feature (or off x86-64) no AVX-512 kernel is
    //! compiled: every entry point reports "not done" and callers run
    //! the portable kernels.
    use super::{DecodedRow, Encode, LaneDecoder};
    use crate::mantissa::ChunkPlan;

    pub(super) fn available() -> bool {
        false
    }

    pub(super) fn decode_row(
        _dec: &LaneDecoder,
        _row: &[f32],
        _words: &mut [u32],
        _cols: &mut [u32],
        _meta: &mut [u32],
    ) -> bool {
        false
    }

    pub(super) fn mac_table(
        _norm: &[u32],
        _aword: u32,
        _words: &[u32],
        _cols: &[u32],
        _c: &mut [f32],
    ) -> bool {
        false
    }

    pub(super) fn mac_chunks(
        _plan: &ChunkPlan,
        _a: u64,
        _encode: Encode,
        _exp_range: (i32, i32),
        _row: &DecodedRow<'_>,
        _c: &mut [f32],
    ) -> bool {
        false
    }

    #[cfg(test)]
    pub(super) fn chunk_tables_of(
        _plan: &ChunkPlan,
        _a: u64,
    ) -> Option<([u32; 8], Vec<[u32; 16]>)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MultiplierConfig, OperandMode};
    use crate::mantissa::MantissaMultiplier;

    #[test]
    fn register_chunk_tables_match_the_plan_for_every_fp16_multiplicand() {
        // All 2^10 fp16 mantissas (with their leading one) under every
        // config: the in-register head and plain tables against
        // `ChunkPlan::tables`, entry for entry.
        let n = FpFormat::FP16.mantissa_width();
        for config in MultiplierConfig::ALL {
            let mult = MantissaMultiplier::new(config, OperandMode::Fp, n);
            let plan = mult.chunk_plan().expect("fp16 runs on chunk tables");
            assert!(plan.fits_u32(), "{config}: fp16 read-outs fit 32 bits");
            for a in 1u64 << (n - 1)..1 << n {
                let Some((head, plain)) = avx512::chunk_tables_of(plan, a) else {
                    return; // no AVX-512F: nothing to compare
                };
                let expect = plan.tables(a);
                assert_eq!(head.map(u64::from), expect.head, "{config}: head of a={a:#x}");
                assert_eq!(plain.len(), expect.plain().len(), "{config}: plain tables");
                for (j, (got, want)) in plain.iter().zip(expect.plain()).enumerate() {
                    assert_eq!(got.map(u64::from), *want, "{config}: chunk {j} of a={a:#x}");
                }
            }
        }
    }
}

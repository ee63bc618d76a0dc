//! The decoded B-tile form of every `f32`-encodable format (see
//! [`f32_encodable`]): the one-word lane layout, the row decode that
//! fills it and the two MACs of [`ApproxFpMul`](crate::ApproxFpMul) that
//! consume it — the product-table MAC (mantissas up to 8 bits) and the
//! chunk-table MAC (wider ones). A tile belongs to its format, not to a
//! backend: [`QuantizedExactMul`](crate::QuantizedExactMul) reads the
//! same tile, one kept lane at a time.
//!
//! # Layout
//!
//! A `w`-wide tile row is one slab of [`decoded_stride`]`(w) = 2w + 4`
//! words, `[word; w] [col; w] kept exotic emin emax`. A lane's word is
//! the `f32` bits of its format-rounded value — exactly
//! `FpScalar::from_f32(b).to_f32().to_bits()`: sign, biased exponent and
//! the format's fraction bits, all at their `f32` positions. The decode
//! stores a row in one of two layouts, chosen from the row's own count
//! of `kept` normal lanes (see [`is_dense`]):
//!
//! * **dense** (at least a quarter of the lanes kept): every lane's word
//!   sits in place, at its column, and a zero or exotic lane holds the
//!   word 0 (a normal word never is 0);
//! * **compressed** (sparser rows): the `kept` lanes' words sit packed
//!   at the front of the word array.
//!
//! In both layouts:
//!
//! * the kept lanes' columns sit at the front of the column array, in
//!   lane order. A compressed row's MACs need them, and so does the
//!   portable MAC on a dense row, to skip its gated lanes;
//! * the `exotic` lanes — Inf/NaN, a value that saturates, or a nonzero
//!   `f32` that flushes to format zero — sit at the back of the column
//!   array, for the exact side logic. An entry is the column ORed with
//!   the format-rounded value ([`EXOTIC_VALUE`]: ±0, ±Inf or NaN, all
//!   zero below bit 22, where every tile column fits);
//! * `emin` / `emax` are the least and greatest biased exponent field
//!   of the kept words (`255` / `0` when nothing is kept). They bound
//!   the exponent of every product of the row, which decides the encode
//!   (see [`encode_product`]).
//!
//! Zero lanes never reach C: a compressed row drops them, a dense row
//! masks them off by their zero word.
//!
//! # Kernels
//!
//! The decode comes in a portable form and an AVX-512F form; the three
//! product MACs have one AVX-512F kernel each here, and their one
//! portable form is the lane MAC of `ApproxFpMul` (`mac_portable`),
//! which serves every other host and every other row. The table and
//! chunk MACs take one driver and one tile row per call; the narrow MAC
//! takes a whole run of drivers (one C row against every row of the
//! tile) and calls back for the rows it does not take.
//! The AVX-512F forms are compiled with the default `simd` feature on
//! x86-64 and chosen by runtime detection. Callers pass `simd: bool` to
//! ask for the detected kernel, so tests can drive both; the two write
//! the same slab words and the same C bits (pinned by the tile tests in
//! `fp.rs`).
//!
//! * **Decode** ([`LaneDecoder::decode_row`]) rounds on the IEEE bits,
//!   so the rounding carry lands in the exponent field by itself, and
//!   classifies each lane from its exponent fields. Both forms write
//!   every word in place (0 for a lane that is not kept) and the kept
//!   columns packed — the portable form branch-free, the AVX-512 form
//!   16 lanes at a time (`vpcompressd` for the columns) with the
//!   exponent range in vector min/max registers. A row that turns out
//!   compressed then moves its kept words to the front (the AVX-512
//!   form with one more `vpcompressd` pass).
//! * **C update.** Both MACs add their products into C the same way. On
//!   a dense row C is contiguous: each 16-lane group masks its lanes by
//!   `word != 0` and runs one masked load, add and store of C, and a
//!   group with no kept lane is skipped. Lanes off the mask, among them
//!   a `-0.0` accumulator behind a zero lane, keep their bits. On a
//!   compressed row it gathers the C values of the kept columns, adds
//!   and scatters them back; columns are unique within a row, so the
//!   scatter order cannot matter. The portable MAC walks the kept
//!   columns of both layouts, reading a dense row's words at their
//!   columns: without vector registers to mask by, a gated lane in
//!   place would cost a full product.
//! * **Table MAC** ([`mac_table`]) serves every product-table width
//!   (mantissas up to 8 bits, so bf16): a product is the pre-normalised
//!   product-table entry of the lane's mantissa, plus two integer adds
//!   (see [`encode_product`]). It takes the in-range rows. The bound
//!   row's 2ⁿ⁻¹ leading-one entries sit in at most 8 zmm registers, and
//!   each lookup is four `vpermi2d` (32 entries each) and two levels of
//!   mask blends on the index's top two bits — no gather.
//! * **Chunk MAC** ([`mac_chunks`]) serves the chunk-table widths (fp16,
//!   tf32, truncated fp32: every width whose read-out fits in 32 bits).
//!   It builds the multiplicand's chunk tables in registers per call —
//!   the head's 8 entries from one `vpmuludq` by the plan's head
//!   coefficients, each 16-entry plain table from four masked ORs —
//!   then reads each lane's wired-OR product as one `vpermd` per chunk,
//!   ORed, and pre-normalises it in vector form. Both encodes run
//!   there: the two-add for in-range rows, the select encode (saturate
//!   and flush as mask blends) for the rest.
//! * **Narrow MAC** ([`mac_narrow`]) serves a product-table multiplier's
//!   runs on tiles at most [`NARROW_LANES`] (16) wide: the weight
//!   gradients of a conv, whose B rows are as wide as its kernel
//!   matrix's columns. Per call, a driver's set-up (binding its table,
//!   loading and storing C) outweighs a 9-lane row's products, so the
//!   C row stays in one zmm register across the run. Per driver whose
//!   row is dense, exotic-free and in range: one masked `vpgatherdd`
//!   from the driver's pre-normalised product row, the two-add encode
//!   and one masked add. Any other row or driver stores the register,
//!   runs the per-driver MAC and reloads it. The adds happen in the
//!   same order as driver by driver, so the bits do not change.
//!
//! The only `unsafe` is in the AVX-512 module below: the intrinsic
//! calls and the `target_feature` call contract.

use crate::mantissa::ChunkPlan;
use daism_num::{FpFormat, FpScalar};

/// The `f32` sign bit.
pub(crate) const SIGN: u32 = 0x8000_0000;
/// The value bits of an exotic lane's entry, above its column.
const EXOTIC_VALUE: u32 = 0xFFC0_0000;
const _: () = assert!(crate::gemm::NC as u32 & EXOTIC_VALUE == 0, "tile columns fit below");
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

/// Whether the AVX-512 kernels run here: compiled in and detected on
/// the host (see [`tile_kernel`]).
pub(crate) fn simd_available() -> bool {
    avx512::available()
}

/// Whether every normal of `format` is encodable in `f32` bits: a
/// mantissa of at most 24 bits and an exponent range within `f32`'s.
/// Exactly these formats have a decoded tile form, and the lane MACs and
/// `ApproxFpMul`'s fused `f32` encode run only for them. Holds for every
/// predefined format.
pub(crate) fn f32_encodable(format: FpFormat) -> bool {
    format.mantissa_width() <= 24 && format.min_exp() >= -126 && format.max_exp() <= 127
}

/// A decoded row is stored dense when at least `1 / DENSE_SHARE` of its
/// lanes are kept. On perfbench's CNN at batch 8 the conv forward and
/// `grad_w` B rows keep 69–92% of their lanes and go dense; the
/// `grad_cols` B rows (the output gradient) keep 5–20% and stay
/// compressed. A dense MAC pays for every gated lane of its 16-lane
/// groups: with every row dense, `conv2_grad_cols` ran about 2× slower.
const DENSE_SHARE: usize = 4;

/// Whether a `w`-wide row with `kept` kept lanes is stored dense (see
/// the module docs).
pub(crate) fn is_dense(kept: usize, w: usize) -> bool {
    kept * DENSE_SHARE >= w
}

/// Row-slab stride of the decoded form for a `w`-wide tile.
pub(crate) fn decoded_stride(w: usize) -> usize {
    2 * w + 4
}

/// One row slab of a decoded tile.
pub(crate) struct DecodedRow<'a> {
    /// Whether the row is stored dense (see [`is_dense`]).
    pub(crate) dense: bool,
    /// Dense row: every lane's word at its column, 0 for a zero or
    /// exotic lane. Compressed row: the kept lanes' words, packed.
    pub(crate) words: &'a [u32],
    /// The kept lanes' columns, in lane order. The decode packs them in
    /// both layouts; a dense row's MACs read its words in place and need
    /// them only where a gated lane would cost a full chunk-table
    /// product.
    pub(crate) cols: &'a [u32],
    /// The exotic lanes' entries (see [`exotic_lanes`](Self::exotic_lanes)).
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
        let dense = is_dense(kept, w);
        DecodedRow {
            dense,
            words: if dense { words } else { &words[..kept] },
            cols: &cols[..kept],
            exotic: &cols[w - exotic..],
            emin: meta[2],
            emax: meta[3],
        }
    }

    /// The nonzero lanes as `(column, value)` pairs, in either layout:
    /// the kept ones in lane order (each its word), then the exotic ones.
    pub(crate) fn lanes(self) -> impl Iterator<Item = (usize, f32)> + 'a {
        let kept = self.cols.iter().enumerate().map(move |(i, &col)| {
            let col = col as usize;
            (col, f32::from_bits(self.words[if self.dense { col } else { i }]))
        });
        kept.chain(self.exotic_lanes())
    }

    /// The exotic lanes as `(column, value)` pairs: each value is the
    /// lane's format-rounded `f32`, ±0, ±Inf or NaN.
    pub(crate) fn exotic_lanes(&self) -> impl Iterator<Item = (usize, f32)> + 'a {
        self.exotic
            .iter()
            .map(|&e| ((e & !EXOTIC_VALUE) as usize, f32::from_bits(e & EXOTIC_VALUE)))
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

/// Multiply-accumulates the kept lanes of a decoded row into C through
/// the bound pre-normalised product row `norm` on AVX-512F: `c[col] +=
/// encode_product(word, aword, norm[mantissa(word)])` per lane, with the
/// products looked up in registers (see the module docs). Only valid
/// when every product of the row is in range (see [`encode_product`]).
/// Returns `false` and leaves `c` alone unless `simd` asks for the
/// kernel and the host has it; the caller then runs the portable lane
/// MAC, which gives the same bits.
///
/// # Panics
///
/// Panics if `norm` is not a `2^n`-entry row with `1 <= n <= 8`, or the
/// row's columns are out of range for `c`.
pub(crate) fn mac_table(
    norm: &[u32],
    aword: u32,
    row: &DecodedRow<'_>,
    c: &mut [f32],
    simd: bool,
) -> bool {
    simd && avx512::mac_table(norm, aword, row, c)
}

/// The widest tile whose C row [`mac_narrow`] holds in a vector register
/// for a whole run: one zmm register of 16 lanes. Wider rows keep the
/// in-register product-table MAC, whose eight table loads per driver
/// cost less than one 16-lane gather per C register: on the 72-lane
/// `conv2_grad_w` rows, a five-register version of this kernel ran
/// slower than the table MAC.
pub(crate) const NARROW_LANES: usize = 16;

/// What the narrow register MAC does with one nonzero driver of a run.
// Only the AVX-512 kernel reads the row; the portable build has none.
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
pub(crate) enum Narrow<'a> {
    /// The tile row keeps no lane and lists no exotic one: nothing
    /// reaches C.
    Skip,
    /// A dense, exotic-free row whose products are all in range:
    /// `c[j] += encode_product(words[j], aword, norm[mantissa(words[j])])`
    /// for every `j` with a nonzero word. `norm` is the driver's
    /// pre-normalised product row (`2^n` entries, `1 <= n <= 24`).
    Mac { words: &'a [u32], norm: &'a [u32], aword: u32 },
    /// Any other row or driver: the caller's per-driver MAC, on C in
    /// memory.
    Fallback,
}

/// Multiply-accumulates a run of drivers into a C row at most
/// [`NARROW_LANES`] wide on AVX-512F, holding the row in one register
/// from the first driver to the last. For each nonzero `a_run[r]`, in
/// ascending `r`, `step(r, a)` says what the row takes: a
/// [`Narrow::Mac`] is one masked gather from the product row, the
/// two-add encode and one masked add; a [`Narrow::Fallback`] stores the
/// register, runs `fallback(r, a, c)` and reloads it. The adds and
/// their order are those of the per-driver MACs, so C gets the same
/// bits.
/// Returns `false` and leaves `c` alone unless `simd` asks for the
/// kernel and the host has it.
///
/// # Panics
///
/// Panics if `c` is wider than [`NARROW_LANES`], or a [`Narrow::Mac`]
/// row is not as wide as `c` or its product row not `2^n` entries.
pub(crate) fn mac_narrow<'a>(
    a_run: &[f32],
    c: &mut [f32],
    step: impl FnMut(usize, f32) -> Narrow<'a>,
    fallback: impl FnMut(usize, f32, &mut [f32]),
    simd: bool,
) -> bool {
    assert!(c.len() <= NARROW_LANES, "a narrow run's C row fits its register");
    simd && avx512::mac_narrow(a_run, c, step, fallback)
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
    format: FpFormat,
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
    /// Panics unless [`f32_encodable`]`(format)`.
    pub(crate) fn new(format: FpFormat) -> Self {
        assert!(f32_encodable(format), "lane decode needs an f32-encodable format");
        let shift = 24 - format.mantissa_width();
        LaneDecoder {
            format,
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
    /// same words, columns, counts and exponent range; one pass then
    /// tags the exotic columns with their values.
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
        for e in &mut cols[w - meta[1] as usize..] {
            let value = FpScalar::from_f32(row[*e as usize], self.format).to_f32();
            *e |= value.to_bits() & EXOTIC_VALUE;
        }
    }

    /// The portable decode: every word in place (0 for a lane that is
    /// not kept) and the kept and exotic columns packed at the two ends
    /// of the column array; a compressed row then packs its words. The
    /// column compaction is branch-free: every lane's column is written
    /// to the next free slot on both ends and the counts advance by its
    /// class. A speculative write lands on a slot that a later lane of
    /// that class overwrites, on a slot past the final count, or (when
    /// the two ends meet) carries the same column as the real write,
    /// since `kept + exotic` never exceeds the lanes seen.
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
            cols[kept] = j as u32;
            kept += lane.normal as usize;
            words[j] = lane.word & (lane.normal as u32).wrapping_neg();
        }
        let len = if is_dense(kept, w) {
            w
        } else {
            // Compress: kept lane `i` sits at column `cols[i] >= i`, so
            // each word is read before the loop overwrites its slot.
            for i in 0..kept {
                words[i] = words[cols[i] as usize];
            }
            kept
        };
        // A kept word is never 0; a dense row's zero words leave the
        // range alone.
        let (emin, emax) = words[..len].iter().fold((0xFF, 0), |(lo, hi), &word| {
            let e = (word >> 23) & 0xFF;
            (lo.min(e | (((word == 0) as u32) * 0xFF)), hi.max(e))
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
    use super::{DecodedRow, Encode, LaneDecoder, Narrow, LEAD, NARROW_LANES, SIGN, SIGN_EXP};
    use crate::mantissa::{ChunkPlan, CHUNK_BITS, MAX_CHUNKS};
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

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
            // SAFETY: the word store writes lanes `j..min(j + 16, w)`
            // (mask `k`), inside `words`. The compress store writes
            // `normal.count_ones()` consecutive columns from `kept`.
            // Every lane before `j` added at most one to `kept`, so
            // `kept <= j`, and at most `min(16, w - j)` lanes are
            // selected: the writes end at or before `w`, inside `cols`
            // (both asserted above).
            unsafe {
                let kept_word = _mm512_maskz_mov_epi32(normal, word);
                _mm512_mask_storeu_epi32(words.as_mut_ptr().add(j).cast(), k, kept_word);
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
        if !super::is_dense(kept, w) {
            // Compress the in-place words of a sparse row: each block's
            // nonzero words move to the front. `packed <= j`, so a block
            // is loaded before any store reaches it, and a store ends at
            // or before `j + 16`.
            let mut packed = 0;
            for j in (0..w).step_by(16) {
                // SAFETY: the load reads lanes `j..min(j + 16, w)` of
                // `words`; the compress store writes `count_ones(nonzero)
                // <= min(16, w - j)` words from `packed <= j`, ending at
                // or before `w`.
                unsafe {
                    let v = _mm512_maskz_loadu_epi32(lanes(w - j), words.as_ptr().add(j).cast());
                    let nonzero = _mm512_test_epi32_mask(v, v);
                    let to = words.as_mut_ptr().add(packed).cast();
                    _mm512_mask_compressstoreu_epi32(to, nonzero, v);
                    packed += nonzero.count_ones() as usize;
                }
            }
        }
        [kept as u32, exotic as u32, _mm512_reduce_min_epu32(emin), _mm512_reduce_max_epu32(emax)]
    }

    /// [`super::mac_table`] on AVX-512F; `false` without it.
    pub(super) fn mac_table(norm: &[u32], aword: u32, row: &DecodedRow<'_>, c: &mut [f32]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: AVX-512F support was detected at runtime just above.
        unsafe { mac_table_avx512(norm, aword, row, c) };
        true
    }

    #[target_feature(enable = "avx512f")]
    fn mac_table_avx512(norm: &[u32], aword: u32, row: &DecodedRow<'_>, c: &mut [f32]) {
        assert!(
            norm.len().is_power_of_two() && (2..=256).contains(&norm.len()),
            "a product row has 2^n entries, 1 <= n <= 8"
        );
        // A kept word's mantissa carries its leading one: only the upper
        // half of the row, 2^(n-1) <= 128 entries, is ever read. It sits
        // in eight registers, zero past its end.
        let lead_half = &norm[norm.len() / 2..];
        let table: [__m512i; 8] = core::array::from_fn(|i| {
            let part = &lead_half[(16 * i).min(lead_half.len())..];
            // SAFETY: the mask selects the first `min(16, part.len())`
            // entries of `part`; masked-off lanes are not read.
            unsafe { _mm512_maskz_loadu_epi32(lanes(part.len()), part.as_ptr().cast()) }
        });
        // The index into the upper half: the word's `n - 1` fraction
        // bits, shifted down from their `f32` position.
        let fraction_bits = _mm512_set1_epi32(0x7F_FFFF);
        let shift = _mm512_set1_epi32(24 - norm.len().trailing_zeros() as i32);
        let (bit5, bit6) = (_mm512_set1_epi32(1 << 5), _mm512_set1_epi32(1 << 6));
        let aword = _mm512_set1_epi32(aword as i32);
        mac_runs(row, c, |w| {
            let idx = _mm512_srlv_epi32(_mm512_and_si512(w, fraction_bits), shift);
            // `vpermi2d` reads the low 5 index bits from 32 entries;
            // bits 5 and 6 (zero below n = 8) pick among the four pairs.
            let quarter = |lo: usize| _mm512_permutex2var_epi32(table[lo], idx, table[lo + 1]);
            let (q0, q1, q2, q3) = (quarter(0), quarter(2), quarter(4), quarter(6));
            let upper = _mm512_test_epi32_mask(idx, bit5);
            let (h0, h1) =
                (_mm512_mask_blend_epi32(upper, q0, q1), _mm512_mask_blend_epi32(upper, q2, q3));
            let e = _mm512_mask_blend_epi32(_mm512_test_epi32_mask(idx, bit6), h0, h1);
            two_add(w, aword, e)
        });
    }

    /// Runs `product(words)` over a decoded row's kept lanes 16 at a
    /// time and adds each product's `f32` bits into its C column. A
    /// dense row updates C in place: one masked load, add and store per
    /// group, masked to the lanes whose word is nonzero, skipping groups
    /// with none. A compressed row gathers C at its columns, adds and
    /// scatters. `product` sees zero words in lanes off the mask and
    /// may return anything there.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mac_runs(row: &DecodedRow<'_>, c: &mut [f32], mut product: impl FnMut(__m512i) -> __m512i) {
        let words = row.words;
        if row.dense {
            let len = words.len();
            // The stores below write C at the word positions.
            assert!(len <= c.len(), "dense row wider than C");
            for j in (0..len).step_by(16) {
                // SAFETY: `lanes(len - j)` selects lanes `j..min(j + 16,
                // len)`, inside `words`; masked-off lanes read as zero.
                let w = unsafe {
                    _mm512_maskz_loadu_epi32(lanes(len - j), words.as_ptr().add(j).cast())
                };
                let kept = _mm512_test_epi32_mask(w, w);
                if kept == 0 {
                    continue;
                }
                let p = _mm512_castsi512_ps(product(w));
                // SAFETY: `kept` selects only lanes below `len <= c.len()`
                // (the word load zeroed the rest), so the masked load and
                // store stay inside `c`; the other lanes of C are not
                // touched. The add is masked too, so the products of gated
                // lanes are never computed on.
                unsafe {
                    let cv = _mm512_maskz_loadu_ps(kept, c.as_ptr().add(j));
                    let sum = _mm512_maskz_add_ps(kept, cv, p);
                    _mm512_mask_storeu_ps(c.as_mut_ptr().add(j), kept, sum);
                }
            }
            return;
        }
        let cols = row.cols;
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
            let p = product(w);
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

    /// [`super::mac_narrow`] on AVX-512F; `false` without it.
    pub(super) fn mac_narrow<'a>(
        a_run: &[f32],
        c: &mut [f32],
        step: impl FnMut(usize, f32) -> Narrow<'a>,
        fallback: impl FnMut(usize, f32, &mut [f32]),
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: AVX-512F support was detected at runtime just above.
        unsafe { mac_narrow_avx512(a_run, c, step, fallback) };
        true
    }

    #[target_feature(enable = "avx512f")]
    fn mac_narrow_avx512<'a>(
        a_run: &[f32],
        c: &mut [f32],
        mut step: impl FnMut(usize, f32) -> Narrow<'a>,
        mut fallback: impl FnMut(usize, f32, &mut [f32]),
    ) {
        let w = c.len();
        assert!(w <= NARROW_LANES, "narrow C row wider than its register");
        // The lanes of C; the ones past `w` are masked off everywhere and
        // stay zero.
        let k = lanes(w);
        // SAFETY: `k` selects lanes `0..w`, inside `c`; masked-off lanes
        // are neither read nor written.
        let load = |c: &[f32]| unsafe { _mm512_maskz_loadu_ps(k, c.as_ptr()) };
        let store = |c: &mut [f32], acc| unsafe { _mm512_mask_storeu_ps(c.as_mut_ptr(), k, acc) };
        let fraction_bits = _mm512_set1_epi32(0x7F_FFFF);
        let lead = _mm512_set1_epi32(LEAD as i32);
        let mut acc = load(c);
        for (r, &a) in a_run.iter().enumerate() {
            if a == 0.0 {
                continue; // zero bypass
            }
            match step(r, a) {
                Narrow::Skip => {}
                Narrow::Fallback => {
                    store(c, acc);
                    fallback(r, a, c);
                    acc = load(c);
                }
                Narrow::Mac { words, norm, aword } => {
                    assert_eq!(words.len(), w, "a dense row is as wide as C");
                    let bits = norm.len().trailing_zeros();
                    assert!(
                        norm.len().is_power_of_two() && (1..=24).contains(&bits),
                        "a product row has 2^n entries, 1 <= n <= 24"
                    );
                    // SAFETY: `k` selects lanes `0..w`, inside `words`
                    // (asserted); masked-off lanes read as zero.
                    let wv = unsafe { _mm512_maskz_loadu_epi32(k, words.as_ptr().cast()) };
                    let kept = _mm512_test_epi32_mask(wv, wv);
                    // The index of a word's mantissa with its leading one:
                    // `n` bits, below `2^n = norm.len()`.
                    let idx = _mm512_srlv_epi32(
                        _mm512_or_si512(_mm512_and_si512(wv, fraction_bits), lead),
                        _mm512_set1_epi32(24 - bits as i32),
                    );
                    // SAFETY: every index is below `norm.len()`, and only
                    // the `kept` lanes are read.
                    let e = unsafe {
                        _mm512_mask_i32gather_epi32::<4>(
                            _mm512_setzero_si512(),
                            kept,
                            idx,
                            norm.as_ptr().cast(),
                        )
                    };
                    let p = two_add(wv, _mm512_set1_epi32(aword as i32), e);
                    acc = _mm512_mask_add_ps(acc, kept, acc, _mm512_castsi512_ps(p));
                }
            }
        }
        store(c, acc);
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
                mac_runs(row, c, |w| two_add(w, aword, norm_of(w)));
            }
            Encode::Select { xsign, xexp } => {
                let (sign_bit, exp_field) = (set1(SIGN), set1(0xFF));
                let (xsign, xexp) = (set1(xsign), set1(xexp as u32));
                let (hi, lo) = (set1((max_exp + 127) as u32), set1((min_exp + 127) as u32));
                let inf = set1(0x7F80_0000);
                mac_runs(row, c, |w| {
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
    use super::{DecodedRow, Encode, LaneDecoder, Narrow};
    use crate::mantissa::ChunkPlan;

    pub(super) fn available() -> bool {
        false
    }

    pub(super) fn mac_narrow<'a>(
        _a_run: &[f32],
        _c: &mut [f32],
        _step: impl FnMut(usize, f32) -> Narrow<'a>,
        _fallback: impl FnMut(usize, f32, &mut [f32]),
    ) -> bool {
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
        _row: &DecodedRow<'_>,
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

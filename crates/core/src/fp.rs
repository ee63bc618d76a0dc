use crate::config::{MultiplierConfig, OperandMode};
use crate::gemm::{GemmBackend, Tile};
use crate::mantissa::{MantissaMultiplier, PreparedMultiplicand};
use daism_num::{bits, encode_normal_f32, FpClass, FpFormat, FpScalar};
use rayon::prelude::*;
use std::fmt;

/// Elements per lane group in the lane-packed approximate multiply
/// kernel (one pre-normalised read-out gather per group).
const LANES: usize = 8;

/// One `KC × NC` tile of the streamed B operand, as the GEMM engine
/// hands it to [`ScalarMul::prepare_tile`]: rows `l0..l1` and columns
/// `j0..j1` of a row-major matrix `n` columns wide.
#[derive(Debug, Clone, Copy)]
pub struct TileSource<'a> {
    b: &'a [f32],
    n: usize,
    tile: Tile,
    /// Decode the row slabs across the worker pool.
    parallel: bool,
}

impl<'a> TileSource<'a> {
    pub(crate) fn new(b: &'a [f32], n: usize, tile: Tile, parallel: bool) -> Self {
        TileSource { b, n, tile, parallel }
    }

    fn rows(&self) -> usize {
        self.tile.l1 - self.tile.l0
    }

    fn width(&self) -> usize {
        self.tile.j1 - self.tile.j0
    }

    fn row(&self, r: usize) -> &'a [f32] {
        let start = (self.tile.l0 + r) * self.n + self.tile.j0;
        &self.b[start..start + self.width()]
    }
}

/// One B tile decoded once for many [`ScalarMul::mul_tile_row`] calls —
/// the operand conversion the GEMM engine hoists out of the MAC loop
/// (one decode per tile *element*, reused by every C row).
///
/// Produced by [`ScalarMul::prepare_tile`]. Each tile row is a slab of
/// fixed stride (a function of the tile width) that keeps only the
/// lanes that reach the multiplier, packed at the front with their
/// column index and followed by the row's count of kept lanes. Zero
/// lanes are dropped at decode time — the hardware's zero gating
/// (paper §III-C): the MAC loop never visits them, so its cost follows
/// the nonzeros. The decoded fields are backend-specific (sign, exponent
/// and mantissa for [`ApproxFpMul`], the quantized `f64` for
/// [`QuantizedExactMul`]). The tile also keeps its raw values, which
/// back the exact side logic and let a *different* backend consume the
/// tile through its [`mul_rows`](ScalarMul::mul_rows) semantics —
/// correct, just unaccelerated.
#[derive(Debug, Clone)]
pub struct PreparedTile {
    width: usize,
    /// The tile's values, row-major.
    raw: Vec<f32>,
    /// One fixed-stride slab per row, laid out as `form` says.
    slabs: Vec<u32>,
    form: TileForm,
}

/// Which backend decoded a [`PreparedTile`], into which format: the
/// layout of its row slabs. A backend accelerates only its own form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileForm {
    /// [`ApproxFpMul`]: operands decoded into the format straight from
    /// the `f32` bits (round-to-nearest-even, carry, range checks;
    /// exactly [`FpScalar::from_f32`]). A row slab of a `w`-wide tile
    /// holds `[man; w] [exp; w] [sign; w] [col; w] kept exotic`:
    /// `kept` normal lanes at the front of the four lane arrays
    /// (mantissa with its leading one, unbiased exponent, sign at the
    /// `f32` sign position, column), and the columns of `exotic` lanes
    /// at the back of the column array. Exotic lanes — Inf/NaN, or a
    /// nonzero `f32` that flushes to format zero, whose signed-zero
    /// product the scalar path *accumulates* rather than skips — take
    /// the exact side logic on their raw values.
    Decoded(FpFormat),
    /// [`QuantizedExactMul`]: every nonzero operand quantized into the
    /// format once, held as the exact `f64` the per-element multiply
    /// consumes. A row slab holds `[lo; w] [hi; w] [col; w] kept`, the
    /// `f64` bits split into low and high words.
    Quantized(FpFormat),
}

/// Row-slab stride of [`TileForm::Decoded`] for a `w`-wide tile.
fn decoded_stride(w: usize) -> usize {
    4 * w + 2
}

/// Row-slab stride of [`TileForm::Quantized`] for a `w`-wide tile.
fn quantized_stride(w: usize) -> usize {
    3 * w + 1
}

impl PreparedTile {
    /// Copies the raw rows of `src` and fills one `stride`-word slab per
    /// row with `decode(row, slab)` — across the pool, in 8-row blocks,
    /// when the source asks for it. Every slab has a fixed place, so
    /// blocks write disjoint memory and scheduling cannot change the
    /// tile.
    fn build(
        src: &TileSource<'_>,
        form: TileForm,
        stride: usize,
        decode: impl Fn(&[f32], &mut [u32]) + Sync,
    ) -> Self {
        let (rows, width) = (src.rows(), src.width());
        let mut raw = Vec::with_capacity(rows * width);
        for r in 0..rows {
            raw.extend_from_slice(src.row(r));
        }
        let mut slabs = vec![0u32; rows * stride];
        let fill = |r0: usize, block: &mut [u32]| {
            for (r, slab) in block.chunks_exact_mut(stride).enumerate() {
                decode(src.row(r0 + r), slab);
            }
        };
        if src.parallel {
            slabs
                .par_chunks_mut(8 * stride)
                .enumerate()
                .for_each(|(bi, block)| fill(bi * 8, block));
        } else {
            fill(0, &mut slabs);
        }
        PreparedTile { width, raw, slabs, form }
    }

    /// Columns in the tile.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The raw (undecoded) values of row `r`.
    pub fn raw_row(&self, r: usize) -> &[f32] {
        &self.raw[r * self.width..(r + 1) * self.width]
    }

    /// Lanes of row `r` that [`ScalarMul::mul_tile_row`] visits.
    #[cfg(test)]
    fn kept(&self, r: usize) -> usize {
        match self.form {
            TileForm::Decoded(_) => {
                let row = DecodedRow::new(&self.slabs, self.width, r);
                row.kept.mans.len() + row.exotic.len()
            }
            TileForm::Quantized(_) => QuantizedRow::new(&self.slabs, self.width, r).cols.len(),
        }
    }
}

/// The kept normal lanes of a [`TileForm::Decoded`] row, or a run of
/// them.
#[derive(Clone, Copy)]
struct KeptLanes<'a> {
    mans: &'a [u32],
    /// Unbiased exponents, stored as `u32` bits.
    exps: &'a [u32],
    signs: &'a [u32],
    cols: &'a [u32],
}

impl<'a> KeptLanes<'a> {
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (m0, m1) = self.mans.split_at(mid);
        let (e0, e1) = self.exps.split_at(mid);
        let (s0, s1) = self.signs.split_at(mid);
        let (c0, c1) = self.cols.split_at(mid);
        (
            KeptLanes { mans: m0, exps: e0, signs: s0, cols: c0 },
            KeptLanes { mans: m1, exps: e1, signs: s1, cols: c1 },
        )
    }
}

/// One row slab of a [`TileForm::Decoded`] tile.
struct DecodedRow<'a> {
    kept: KeptLanes<'a>,
    /// Columns of the exotic lanes.
    exotic: &'a [u32],
}

impl<'a> DecodedRow<'a> {
    fn new(slabs: &'a [u32], w: usize, r: usize) -> Self {
        let stride = decoded_stride(w);
        let slab = &slabs[r * stride..(r + 1) * stride];
        let (kept, exotic) = (slab[4 * w] as usize, slab[4 * w + 1] as usize);
        DecodedRow {
            kept: KeptLanes {
                mans: &slab[..kept],
                exps: &slab[w..w + kept],
                signs: &slab[2 * w..2 * w + kept],
                cols: &slab[3 * w..3 * w + kept],
            },
            exotic: &slab[4 * w - exotic..4 * w],
        }
    }
}

/// One row slab of a [`TileForm::Quantized`] tile.
struct QuantizedRow<'a> {
    lo: &'a [u32],
    hi: &'a [u32],
    cols: &'a [u32],
}

impl<'a> QuantizedRow<'a> {
    fn new(slabs: &'a [u32], w: usize, r: usize) -> Self {
        let stride = quantized_stride(w);
        let slab = &slabs[r * stride..(r + 1) * stride];
        let kept = slab[3 * w] as usize;
        QuantizedRow { lo: &slab[..kept], hi: &slab[w..w + kept], cols: &slab[2 * w..2 * w + kept] }
    }

    /// The kept lanes as `(quantized value, column)`.
    fn lanes(&self) -> impl Iterator<Item = (f64, usize)> + 'a {
        let (lo, hi) = (self.lo, self.hi);
        lo.iter()
            .zip(hi)
            .map(|(&lo, &hi)| f64::from_bits(((hi as u64) << 32) | lo as u64))
            .zip(self.cols.iter().map(|&c| c as usize))
    }
}

/// [`FpScalar::from_f32`] into a `fast_f32` format, computed straight
/// from the `f32` bits for the tile decode: round-to-nearest-even as
/// one add and shift, the rounding carry as a shift, then the range
/// checks. The per-format constants are derived once per tile.
#[derive(Debug, Clone, Copy)]
struct LaneDecoder {
    /// Mantissa width `n` (at most 24).
    width: u32,
    /// Low bits of the 24-bit `f32` mantissa the format drops.
    shift: u32,
    /// `2^(shift-1) - 1`: the round-half-down bias (0 when nothing is
    /// dropped).
    half_minus_one: u32,
    /// `1` when bits are dropped: the kept LSB breaks ties to even.
    odd: u32,
    min_exp: i32,
    max_exp: i32,
}

/// One B element as the lane decoder reads it.
#[derive(Debug, Clone, Copy)]
struct DecodedLane {
    /// Mantissa with explicit leading one (meaningful for normals only).
    man: u32,
    /// Unbiased exponent (meaningful for normals only).
    exp: i32,
    /// Sign at the `f32` sign position (meaningful for normals only).
    sign: u32,
    /// A `Normal` value of the format: a kept lane.
    normal: bool,
    /// Needs the exact side logic: Inf/NaN, or a nonzero `f32` that
    /// flushes to format zero.
    exotic: bool,
}

impl LaneDecoder {
    fn new(format: FpFormat) -> Self {
        let width = format.mantissa_width();
        debug_assert!(width <= 24, "lane decode needs a fast_f32 format");
        let shift = 24 - width;
        LaneDecoder {
            width,
            shift,
            half_minus_one: if shift == 0 { 0 } else { (1 << (shift - 1)) - 1 },
            odd: (shift != 0) as u32,
            min_exp: format.min_exp(),
            max_exp: format.max_exp(),
        }
    }

    #[inline]
    fn decode(&self, bits: u32) -> DecodedLane {
        let e = (bits >> 23) & 0xFF;
        let mant24 = (1 << 23) | (bits & 0x7F_FFFF);
        // Round to nearest, ties to even: adding `half - 1` plus the
        // kept LSB carries out of the dropped bits exactly when they
        // exceed half, or equal it with an odd kept part.
        let rounded =
            (mant24 + self.half_minus_one + ((mant24 >> self.shift) & self.odd)) >> self.shift;
        // Rounding can overflow to `2^width` (1.11…1 → 10.0).
        let carry = rounded >> self.width;
        let exp = e as i32 - 127 + carry as i32;
        // `e == 0` is zero or an f32 subnormal (flushed); `e == 0xFF` is
        // Inf/NaN, and exponents outside the format saturate or flush.
        let normal = e != 0 && e != 0xFF && (self.min_exp..=self.max_exp).contains(&exp);
        DecodedLane {
            man: rounded >> carry,
            exp,
            sign: bits & 0x8000_0000,
            normal,
            exotic: !normal && bits & 0x7FFF_FFFF != 0,
        }
    }

    /// Decodes one tile row into a [`TileForm::Decoded`] slab: normal
    /// lanes packed at the front, exotic columns at the back of the
    /// column array, zero lanes dropped.
    ///
    /// The compaction is branch-free: every lane is written to the next
    /// free slot on both ends and the counts advance by its class. A
    /// speculative write lands on a slot that a later lane of that
    /// class overwrites, on a slot past the final count, or (when the
    /// two ends meet) carries the same column as the real write, since
    /// `kept + exotic` never exceeds the lanes seen.
    fn decode_row(&self, row: &[f32], slab: &mut [u32]) {
        let w = row.len();
        let (lanes, counts) = slab.split_at_mut(4 * w);
        let (mans, rest) = lanes.split_at_mut(w);
        let (exps, rest) = rest.split_at_mut(w);
        let (signs, cols) = rest.split_at_mut(w);
        let (mut kept, mut exotic) = (0usize, 0usize);
        for (j, &bv) in row.iter().enumerate() {
            let lane = self.decode(bv.to_bits());
            cols[w - 1 - exotic] = j as u32;
            exotic += lane.exotic as usize;
            mans[kept] = lane.man;
            exps[kept] = lane.exp as u32;
            signs[kept] = lane.sign;
            cols[kept] = j as u32;
            kept += lane.normal as usize;
        }
        counts[0] = kept as u32;
        counts[1] = exotic as u32;
    }
}

/// A scalar multiplication backend: the seam through which the DNN crates
/// and the architecture model plug in exact or approximate arithmetic.
///
/// Implementors must be deterministic and side-effect free; `mul` is
/// called billions of times by the accuracy experiments. Every
/// implementor is a [`GemmBackend`] (products through
/// [`gemm`](crate::gemm)), named in reports by its `Display` form.
pub trait ScalarMul: GemmBackend {
    /// Multiplies two values, returning the result widened to `f32`.
    fn mul(&self, x: f32, y: f32) -> f32;

    /// `true` if `mul` is exactly native `f32` multiplication, letting
    /// bulk callers (GEMM kernels) skip per-element dispatch. Only
    /// [`ExactMul`] should return `true`.
    fn is_native_f32(&self) -> bool {
        false
    }

    /// Batched row-times-panel FMA: `c[j] += mul(a, b[j])` for every `j`
    /// with `b[j] != 0.0` — the accumulate step the GEMM engine issues
    /// once per (A-element, B-row-panel) pair.
    ///
    /// Skipping exact-zero `b[j]` mirrors the hardware's zero bypass
    /// (paper §III-C): a zero operand never activates the array, and
    /// because a freshly zeroed `f32` accumulator is `+0.0`, skipping the
    /// `±0.0` product leaves the same bits as adding it. `a == 0.0` is
    /// gated by the caller for the same reason. Native-`f32` backends may
    /// instead multiply zeros through (a branchless FMA loop) — identical
    /// bits on non-negative-zero accumulators with finite `a`.
    ///
    /// The default forwards each element to [`mul`](Self::mul);
    /// implementations override it to hoist per-`a` work (operand decode,
    /// line-pattern derivation, quantization) out of the panel loop.
    /// Overrides **must keep every accumulated product bit-identical to
    /// [`mul`](Self::mul)** — the `mul_rows`-vs-`mul` equivalence tests
    /// and the differential GEMM suite enforce this.
    ///
    /// # Panics
    ///
    /// May panic if `b.len() != c.len()`.
    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(b.len(), c.len(), "panel length mismatch");
        for (cv, bv) in c.iter_mut().zip(b) {
            if *bv != 0.0 {
                *cv += self.mul(a, *bv);
            }
        }
    }

    /// Decodes one B tile once, ahead of many
    /// [`mul_tile_row`](Self::mul_tile_row) calls against its rows.
    ///
    /// This is the second amortisation rung above
    /// [`mul_rows`](Self::mul_rows): `mul_rows` hoists the *A*-operand
    /// work out of the row loop, `prepare_tile` hoists the *B*-operand
    /// decode out of the MAC loop entirely — the GEMM engine prepares
    /// each `KC×NC` B tile once and reuses it for every C row, so the
    /// per-MAC `FpScalar::from_f32` disappears, and the zero lanes the
    /// hardware gates are dropped so no C row ever visits them.
    ///
    /// `None` (the default) means the backend has no cheaper form: the
    /// engine keeps the raw fused [`mul_rows`](Self::mul_rows) loop.
    fn prepare_tile(&self, _src: &TileSource<'_>) -> Option<PreparedTile> {
        None
    }

    /// [`mul_rows`](Self::mul_rows) against row `r` of a tile prepared
    /// by [`prepare_tile`](Self::prepare_tile): `c[j] += mul(a, b[j])`
    /// for every `j` with `b[j] != 0.0`, with the same zero-bypass
    /// contract — and the same **bit-identity requirement**: the result
    /// must equal `mul_rows(a, tile.raw_row(r), c)` exactly (the
    /// equivalence tests and the differential GEMM suite enforce this).
    ///
    /// The default, also taken by a tile prepared by a *different*
    /// backend, runs `mul_rows` on the raw row: still correct, just not
    /// accelerated.
    ///
    /// # Panics
    ///
    /// May panic if `r` is out of range or `c.len() != tile.width()`.
    fn mul_tile_row(&self, a: f32, tile: &PreparedTile, r: usize, c: &mut [f32]) {
        self.mul_rows(a, tile.raw_row(r), c);
    }
}

/// Exact native `f32` multiplication — the paper's float32 baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMul;

impl fmt::Display for ExactMul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("float32/exact")
    }
}

impl ScalarMul for ExactMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        x * y
    }

    fn is_native_f32(&self) -> bool {
        true
    }

    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        // Native multiply-accumulate: no zero test — `a * 0.0` adds
        // `±0.0`, which cannot change a `+0.0`-initialised accumulator,
        // and a branchless loop auto-vectorises.
        for (cv, bv) in c.iter_mut().zip(b) {
            *cv += a * bv;
        }
    }
}

/// Exact multiplication at reduced precision: operands are quantized into
/// `format`, multiplied exactly, and the result re-quantized
/// (round-to-nearest-even). This isolates *quantization* error from the
/// OR-approximation error that [`ApproxFpMul`] adds on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedExactMul {
    format: FpFormat,
}

impl QuantizedExactMul {
    /// Creates an exact multiplier at `format` precision.
    pub fn new(format: FpFormat) -> Self {
        QuantizedExactMul { format }
    }

    /// The operand/result format.
    pub fn format(&self) -> FpFormat {
        self.format
    }
}

impl fmt::Display for QuantizedExactMul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/exact", self.format)
    }
}

impl ScalarMul for QuantizedExactMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        let xq = FpScalar::from_f32(x, self.format).to_f64();
        let yq = FpScalar::from_f32(y, self.format).to_f64();
        FpScalar::from_f32((xq * yq) as f32, self.format).to_f32()
    }

    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        // Quantize the reused operand once per panel; per-element math is
        // unchanged, so results stay bit-identical to `mul`.
        let xq = FpScalar::from_f32(a, self.format).to_f64();
        for (cv, bv) in c.iter_mut().zip(b) {
            if *bv != 0.0 {
                let yq = FpScalar::from_f32(*bv, self.format).to_f64();
                *cv += FpScalar::from_f32((xq * yq) as f32, self.format).to_f32();
            }
        }
    }

    fn prepare_tile(&self, src: &TileSource<'_>) -> Option<PreparedTile> {
        let w = src.width();
        let decode = |row: &[f32], slab: &mut [u32]| {
            let (lo, rest) = slab.split_at_mut(w);
            let (hi, rest) = rest.split_at_mut(w);
            let (cols, count) = rest.split_at_mut(w);
            let mut kept = 0;
            for (j, &bv) in row.iter().enumerate() {
                // Branch-free compaction: a zero lane's write is
                // overwritten by the next kept lane or lies past the count.
                let yq = FpScalar::from_f32(bv, self.format).to_f64().to_bits();
                lo[kept] = yq as u32;
                hi[kept] = (yq >> 32) as u32;
                cols[kept] = j as u32;
                kept += (bv != 0.0) as usize;
            }
            count[0] = kept as u32;
        };
        Some(PreparedTile::build(
            src,
            TileForm::Quantized(self.format),
            quantized_stride(w),
            decode,
        ))
    }

    fn mul_tile_row(&self, a: f32, tile: &PreparedTile, r: usize, c: &mut [f32]) {
        if tile.form != TileForm::Quantized(self.format) {
            return self.mul_rows(a, tile.raw_row(r), c);
        }
        debug_assert_eq!(tile.width, c.len(), "tile width mismatch");
        // The cached `yq` is exactly the value `mul_rows` re-derives per
        // element; only the result quantization (which depends on `a`)
        // remains in the loop, and only over the nonzero lanes.
        let xq = FpScalar::from_f32(a, self.format).to_f64();
        for (yq, col) in QuantizedRow::new(&tile.slabs, tile.width, r).lanes() {
            c[col] += FpScalar::from_f32((xq * yq) as f32, self.format).to_f32();
        }
    }
}

/// The full DAISM floating-point multiply pipeline (paper §III-C, §IV-A):
///
/// 1. decode operands into `format` (subnormals flush to zero);
/// 2. **zero bypass** — multiplications by zero never touch the SRAM;
/// 3. sign = XOR, exponents added exactly (separate small adder);
/// 4. mantissas (with explicit leading ones) multiplied by the
///    OR-approximate [`MantissaMultiplier`];
/// 5. renormalisation by at most one position; mantissa *truncated*
///    (floor) to the format — the hardware has no rounding logic;
/// 6. exponent overflow saturates to infinity, underflow flushes to zero.
///
/// # Examples
///
/// ```
/// use daism_core::{ApproxFpMul, MultiplierConfig, ScalarMul};
/// use daism_num::FpFormat;
///
/// let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
/// // Powers of two multiply exactly (single active partial product):
/// assert_eq!(mul.mul(4.0, -0.5), -2.0);
/// // Zero bypass:
/// assert_eq!(mul.mul(0.0, 123.4), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxFpMul {
    format: FpFormat,
    mult: MantissaMultiplier,
    /// `true` when every normal result of this format is directly
    /// encodable in `f32` bits (mantissa ≤ 24 bits, exponent range
    /// within `f32`'s) — lets the batched path skip the `FpScalar`
    /// round-trip. Holds for all predefined formats.
    fast_f32: bool,
}

impl ApproxFpMul {
    /// Builds the pipeline for a multiplier configuration and operand
    /// format.
    pub fn new(config: MultiplierConfig, format: FpFormat) -> Self {
        let mult = MantissaMultiplier::new(config, OperandMode::Fp, format.mantissa_width());
        let fast_f32 =
            format.mantissa_width() <= 24 && format.max_exp() <= 127 && format.min_exp() >= -126;
        ApproxFpMul { format, mult, fast_f32 }
    }

    /// The operand/result format.
    #[inline]
    pub fn format(&self) -> FpFormat {
        self.format
    }

    /// The underlying mantissa multiplier.
    #[inline]
    pub fn mantissa_multiplier(&self) -> &MantissaMultiplier {
        &self.mult
    }

    /// The multiplier configuration.
    #[inline]
    pub fn config(&self) -> MultiplierConfig {
        self.mult.config()
    }

    /// Multiplies two decoded scalars through the approximate pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the scalars are not in this pipeline's format.
    pub fn mul_scalars(&self, x: &FpScalar, y: &FpScalar) -> FpScalar {
        assert_eq!(x.format(), self.format, "left operand format mismatch");
        assert_eq!(y.format(), self.format, "right operand format mismatch");
        let sign = x.sign() ^ y.sign();

        // NaN / Inf / zero handling (exact side logic, not in the SRAM).
        match (x.class(), y.class()) {
            (FpClass::Nan, _) | (_, FpClass::Nan) => {
                return FpScalar::from_f32(f32::NAN, self.format)
            }
            (FpClass::Inf, FpClass::Zero) | (FpClass::Zero, FpClass::Inf) => {
                return FpScalar::from_f32(f32::NAN, self.format)
            }
            (FpClass::Inf, _) | (_, FpClass::Inf) => {
                let v = if sign { f32::NEG_INFINITY } else { f32::INFINITY };
                return FpScalar::from_f32(v, self.format);
            }
            (FpClass::Zero, _) | (_, FpClass::Zero) => {
                // Zero bypass (§III-C): never reaches the array.
                let v = if sign { -0.0 } else { 0.0 };
                return FpScalar::from_f32(v, self.format);
            }
            (FpClass::Normal, FpClass::Normal) => {}
        }

        let raw = self.mult.multiply(x.mantissa(), y.mantissa());
        self.combine_raw(x, y, raw)
    }

    /// Combines a raw mantissa-multiplier read-out (`raw`, as produced by
    /// [`MantissaMultiplier::multiply`] or
    /// [`SramMultiplier::multiply_group`](crate::SramMultiplier)) with the
    /// operands' signs and exponents: renormalisation, exponent add and
    /// saturation. This is the accumulator-side logic of the accelerator;
    /// exposing it lets the SRAM-backed datapath share one normalisation
    /// implementation.
    ///
    /// `raw == 0` yields (signed) zero — the read-out of a slot whose
    /// stored multiplicand is zero.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not a `Normal` scalar of this
    /// pipeline's format.
    pub fn combine_raw(&self, x: &FpScalar, y: &FpScalar, raw: u64) -> FpScalar {
        assert_eq!(x.format(), self.format, "left operand format mismatch");
        assert_eq!(y.format(), self.format, "right operand format mismatch");
        assert_eq!(x.class(), FpClass::Normal, "combine_raw needs normal operands");
        assert_eq!(y.class(), FpClass::Normal, "combine_raw needs normal operands");
        let sign = x.sign() ^ y.sign();
        if raw == 0 {
            let v = if sign { -0.0 } else { 0.0 };
            return FpScalar::from_f32(v, self.format);
        }
        let n = self.format.mantissa_width();
        let exp_sum = x.exponent() + y.exponent();

        // Renormalise: the product of two [1,2) mantissas lies in [1,4).
        // Full result has 2n columns; truncated keeps the top n. The
        // normaliser looks at the top column and shifts by at most one.
        let (man, exp) = if self.mult.config().truncate {
            // raw approximates (x.man * y.man) >> n, an n-bit value whose
            // bit n-1 is set iff the product reached [2,4). Masking keeps
            // an over-wide approximate read-out to the n columns the
            // hardware latches (mirrored in `fuse_combine`).
            if bits::bit(raw, n - 1) {
                (raw & bits::mask(n), exp_sum + 1)
            } else {
                // Shift left; the incoming LSB (column n-1 of the full
                // product) was truncated away — hardware fills zero.
                ((raw << 1) & bits::mask(n), exp_sum)
            }
        } else {
            // raw approximates the full 2n-bit product.
            if bits::bit(raw, 2 * n - 1) {
                ((raw >> n) & bits::mask(n), exp_sum + 1)
            } else {
                ((raw >> (n - 1)) & bits::mask(n), exp_sum)
            }
        };

        debug_assert!(bits::bit(man, n - 1), "normalised mantissa must have its leading one");
        FpScalar::from_parts(sign, exp, man, self.format)
    }

    /// [`combine_raw`](Self::combine_raw) fused with the `f32` encode,
    /// skipping the `FpScalar` round-trip (and its `powi`): same
    /// normalisation, same saturation, same panic on a denormalised
    /// read-out — **bit-identical** results, asserted by the
    /// `mul_rows`-vs-`mul` equivalence tests. Only valid when
    /// `self.fast_f32` (checked by the caller).
    #[inline]
    fn combine_raw_to_f32(&self, x: &FpScalar, y: &FpScalar, raw: u64) -> f32 {
        self.fuse_combine(x.sign() ^ y.sign(), x.exponent() + y.exponent(), raw)
    }

    /// The parts-level core of [`combine_raw_to_f32`](Self::combine_raw_to_f32):
    /// takes the already-XORed sign and already-summed exponent, without
    /// materialising `FpScalar`s. Only valid when `self.fast_f32`
    /// (checked by callers).
    #[inline]
    fn fuse_combine(&self, sign: bool, exp_sum: i32, raw: u64) -> f32 {
        if raw == 0 {
            return if sign { -0.0 } else { 0.0 };
        }
        let n = self.format.mantissa_width();
        // Same branch structure and masking as `combine_raw` — an
        // over-wide read-out must normalise identically on both paths.
        let (man, exp) = if self.mult.config().truncate {
            if bits::bit(raw, n - 1) {
                (raw & bits::mask(n), exp_sum + 1)
            } else {
                ((raw << 1) & bits::mask(n), exp_sum)
            }
        } else if bits::bit(raw, 2 * n - 1) {
            ((raw >> n) & bits::mask(n), exp_sum + 1)
        } else {
            ((raw >> (n - 1)) & bits::mask(n), exp_sum)
        };
        // `encode_normal_f32` asserts the leading one (the `from_parts`
        // contract) and applies the identical saturation/flush rules.
        encode_normal_f32(sign, exp, man, self.format)
    }

    /// The products of one group of pre-normalised read-outs (see
    /// [`prenormalise`](crate::mantissa::prenormalise)) with a `Normal`
    /// multiplicand of sign `xsign` (at the `f32` sign position) and
    /// exponent `xexp`: exponent add (the renormalise increment rides in
    /// bit 23), branch-free encode (saturation/flush as exponent-range
    /// selects), one OR with sign and fraction. All lanes are fixed-width
    /// arrays, so the whole group autovectorizes on stable.
    /// Bit-identical to [`fuse_combine`](Self::fuse_combine) on every
    /// lane. Only valid when `self.fast_f32` and for read-outs of
    /// `Normal` operands.
    #[inline]
    fn product_lanes<const L: usize>(
        &self,
        norm: &[u32; L],
        exps: &[u32; L],
        signs: &[u32; L],
        xsign: u32,
        xexp: i32,
    ) -> [f32; L] {
        let (max_exp, min_exp) = (self.format.max_exp(), self.format.min_exp());
        let mut out = [0.0f32; L];
        for j in 0..L {
            let e = norm[j];
            let exp = xexp + exps[j] as i32 + (e >> 23) as i32;
            let sign = xsign ^ signs[j];
            // `encode_normal_f32` with saturation/flush as selects; the
            // out-of-range lanes' `normal` bits are garbage that the
            // select discards.
            let normal = sign | (((exp + 127) as u32) << 23) | (e & 0x7F_FFFF);
            let pbits = if exp > max_exp {
                sign | 0x7F80_0000 // saturate to (signed) infinity
            } else if exp < min_exp {
                sign // flush to (signed) zero
            } else {
                normal
            };
            out[j] = f32::from_bits(pbits);
        }
        out
    }

    /// Multiply-accumulates runs of `L` kept lanes into their C columns:
    /// one pre-normalised gather (or chunk read) and one
    /// [`product_lanes`](Self::product_lanes) per run, then a scatter-add.
    /// Within a tile row every column appears once, so the scatter order
    /// cannot matter. `lanes.mans.len()` must be a multiple of `L`.
    #[inline]
    fn mac_lanes<const L: usize>(
        &self,
        prep: &PreparedMultiplicand,
        xs: &FpScalar,
        lanes: KeptLanes<'_>,
        c: &mut [f32],
    ) {
        let (xsign, xexp) = ((xs.sign() as u32) << 31, xs.exponent());
        let runs = lanes
            .mans
            .chunks_exact(L)
            .zip(lanes.exps.chunks_exact(L))
            .zip(lanes.signs.chunks_exact(L))
            .zip(lanes.cols.chunks_exact(L));
        for (((mans, exps), signs), cols) in runs {
            // Fixed-width array views: index-free lanes the compiler can
            // keep in vector registers.
            let mans: &[u32; L] = mans.try_into().expect("lane run");
            let exps: &[u32; L] = exps.try_into().expect("lane run");
            let signs: &[u32; L] = signs.try_into().expect("lane run");
            let norm = self.mult.norm_lanes_trusted(prep, mans);
            let products = self.product_lanes(&norm, exps, signs, xsign, xexp);
            for (&col, p) in cols.iter().zip(products) {
                c[col as usize] += p;
            }
        }
    }

    /// The scalar per-element multiply-accumulate over a slice of raw B
    /// values with the multiplicand already decoded and prepared — the
    /// body of the batched `mul_rows` fast path. Only valid when
    /// `self.fast_f32` and `xs` is `Normal` (checked by callers).
    fn mul_prepared_scalar_chunk(
        &self,
        xs: &FpScalar,
        prep: &PreparedMultiplicand,
        bs: &[f32],
        c: &mut [f32],
    ) {
        for (cv, bv) in c.iter_mut().zip(bs) {
            if *bv == 0.0 {
                continue; // zero bypass (§III-C) — never touches the array
            }
            let ys = FpScalar::from_f32(*bv, self.format);
            *cv += if ys.class() == FpClass::Normal {
                let raw = self.mult.multiply_prepared_trusted(prep, ys.mantissa());
                self.combine_raw_to_f32(xs, &ys, raw)
            } else {
                self.mul_scalars(xs, &ys).to_f32()
            };
        }
    }
}

impl fmt::Display for ApproxFpMul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.format, self.mult.config())
    }
}

impl ScalarMul for ApproxFpMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        let xs = FpScalar::from_f32(x, self.format);
        let ys = FpScalar::from_f32(y, self.format);
        self.mul_scalars(&xs, &ys).to_f32()
    }

    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        // Decode the reused operand and bind its table row (or build its
        // chunk tables) once per panel — this is the batched fast path the
        // GEMM engine exists for. Every per-element step below matches
        // `mul_scalars` exactly, keeping results bit-identical.
        let xs = FpScalar::from_f32(a, self.format);
        if xs.class() != FpClass::Normal {
            // Zero / NaN / Inf multiplicand: rare, handled by the exact
            // side logic — no mantissa work to hoist.
            for (cv, bv) in c.iter_mut().zip(b) {
                if *bv != 0.0 {
                    *cv += self.mul_scalars(&xs, &FpScalar::from_f32(*bv, self.format)).to_f32();
                }
            }
            return;
        }
        let prep = self.mult.prepare(xs.mantissa());
        if self.fast_f32 {
            self.mul_prepared_scalar_chunk(&xs, &prep, b, c);
            return;
        }
        for (cv, bv) in c.iter_mut().zip(b) {
            if *bv == 0.0 {
                continue; // zero bypass (§III-C) — never touches the array
            }
            let ys = FpScalar::from_f32(*bv, self.format);
            let product = if ys.class() == FpClass::Normal {
                let raw = self.mult.multiply_prepared(&prep, ys.mantissa());
                self.combine_raw(&xs, &ys, raw)
            } else {
                self.mul_scalars(&xs, &ys)
            };
            *cv += product.to_f32();
        }
    }

    fn prepare_tile(&self, src: &TileSource<'_>) -> Option<PreparedTile> {
        if !self.fast_f32 {
            // Exotic formats stay on the FpScalar path; nothing cheap to
            // cache, so the engine keeps the raw fused loop.
            return None;
        }
        let dec = LaneDecoder::new(self.format);
        Some(PreparedTile::build(
            src,
            TileForm::Decoded(self.format),
            decoded_stride(src.width()),
            |row, slab| dec.decode_row(row, slab),
        ))
    }

    fn mul_tile_row(&self, a: f32, tile: &PreparedTile, r: usize, c: &mut [f32]) {
        if tile.form != TileForm::Decoded(self.format) {
            return self.mul_rows(a, tile.raw_row(r), c);
        }
        debug_assert_eq!(tile.width, c.len(), "tile width mismatch");
        let raw = tile.raw_row(r);
        let xs = FpScalar::from_f32(a, self.format);
        if xs.class() != FpClass::Normal {
            // Zero / NaN / Inf multiplicand: rare, exact side logic.
            for (cv, bv) in c.iter_mut().zip(raw) {
                if *bv != 0.0 {
                    *cv += self.mul_scalars(&xs, &FpScalar::from_f32(*bv, self.format)).to_f32();
                }
            }
            return;
        }
        let row = DecodedRow::new(&tile.slabs, tile.width, r);
        if !row.kept.mans.is_empty() {
            // Per-call work: one decode of `a` and binding its table row
            // (or building its chunk tables). Per-MAC work, over the kept
            // lanes only: one gather from the pre-normalised product row
            // (or one lookup per chunk plus the same renormalise), the
            // product encode and one add into C. Zero lanes were dropped
            // at decode, exactly the lanes the scalar path's `bv == 0.0`
            // test skips, so results stay bit-identical (the tile-vs-
            // mul_rows equivalence tests and the differential GEMM suite
            // enforce this).
            let prep = self.mult.prepare(xs.mantissa());
            let full = row.kept.mans.len() / LANES * LANES;
            let (groups, tail) = row.kept.split_at(full);
            self.mac_lanes::<LANES>(&prep, &xs, groups, c);
            self.mac_lanes::<1>(&prep, &xs, tail, c);
        }
        for &col in row.exotic {
            // Inf/NaN or flushed-nonzero: exact side logic on the raw
            // value.
            let col = col as usize;
            let ys = FpScalar::from_f32(raw[col], self.format);
            c[col] += self.mul_scalars(&xs, &ys).to_f32();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc3tr_bf16() -> ApproxFpMul {
        ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)
    }

    #[test]
    fn zero_bypass() {
        let m = pc3tr_bf16();
        assert_eq!(m.mul(0.0, 5.0), 0.0);
        assert_eq!(m.mul(5.0, 0.0), 0.0);
        assert_eq!(m.mul(-0.0, 5.0), -0.0);
        assert!(m.mul(-3.0, 0.0).to_bits() == (-0.0f32).to_bits());
    }

    #[test]
    fn sign_xor() {
        let m = pc3tr_bf16();
        assert!(m.mul(2.0, 3.0) > 0.0);
        assert!(m.mul(-2.0, 3.0) < 0.0);
        assert!(m.mul(2.0, -3.0) < 0.0);
        assert!(m.mul(-2.0, -3.0) > 0.0);
    }

    #[test]
    fn powers_of_two_are_exact() {
        for config in MultiplierConfig::ALL {
            let m = ApproxFpMul::new(config, FpFormat::BF16);
            for &(x, y) in
                &[(2.0f32, 8.0f32), (0.5, 0.25), (1.0, 1.0), (-4.0, 2.0), (1024.0, 0.0625)]
            {
                assert_eq!(m.mul(x, y), x * y, "{config}: {x}*{y}");
            }
        }
    }

    #[test]
    fn nan_and_inf_propagate() {
        let m = pc3tr_bf16();
        assert!(m.mul(f32::NAN, 1.0).is_nan());
        assert!(m.mul(f32::INFINITY, 0.0).is_nan());
        assert_eq!(m.mul(f32::INFINITY, 2.0), f32::INFINITY);
        assert_eq!(m.mul(f32::NEG_INFINITY, 2.0), f32::NEG_INFINITY);
        assert_eq!(m.mul(f32::INFINITY, -2.0), f32::NEG_INFINITY);
    }

    #[test]
    fn never_overestimates_magnitude() {
        // The OR approximation + floor truncation can only lose magnitude
        // relative to the bf16-quantized exact product.
        let exact = QuantizedExactMul::new(FpFormat::BF16);
        for config in MultiplierConfig::ALL {
            let m = ApproxFpMul::new(config, FpFormat::BF16);
            let mut v = 0.11f32;
            for _ in 0..200 {
                let mut w = 0.07f32;
                for _ in 0..50 {
                    let a = m.mul(v, w).abs();
                    // Compare against the unquantized product of the
                    // quantized operands (the true reference).
                    let xq = FpScalar::from_f32(v, FpFormat::BF16).to_f64();
                    let yq = FpScalar::from_f32(w, FpFormat::BF16).to_f64();
                    let e = (xq * yq).abs();
                    assert!(
                        a as f64 <= e * (1.0 + 1e-12),
                        "{config}: {v}*{w}: approx {a} > exact {e}"
                    );
                    w *= 1.83;
                }
                v *= 1.31;
            }
            let _ = exact; // silence unused in case asserts compiled out
        }
    }

    #[test]
    fn relative_error_bounded_for_pc3() {
        // PC3's worst case: all collisions below the top-3 bits. The
        // exhaustive mantissa analysis puts the ceiling just under 20%;
        // the fp pipeline adds one floor-truncation on top.
        let m = pc3tr_bf16();
        let mut worst = 0.0f64;
        let mut v = 1.0f32;
        for i in 0..256 {
            let x = 1.0 + (i as f32) / 256.0; // sweep mantissas in [1,2)
            for j in 0..256 {
                let y = 1.0 + (j as f32) / 256.0;
                let approx = m.mul(x, y) as f64;
                let xq = FpScalar::from_f32(x, FpFormat::BF16).to_f64();
                let yq = FpScalar::from_f32(y, FpFormat::BF16).to_f64();
                let exact = xq * yq;
                let rel = ((exact - approx) / exact).abs();
                worst = worst.max(rel);
            }
            v += 1.0;
        }
        let _ = v;
        assert!(worst < 0.25, "worst-case PC3_tr relative error {worst}");
        assert!(worst > 0.05, "PC3_tr suspiciously accurate: {worst}");
    }

    #[test]
    fn truncated_and_full_agree_when_no_low_bits() {
        // Operands whose product fits the top n columns exactly lose
        // nothing to truncation.
        let full = ApproxFpMul::new(MultiplierConfig::PC3, FpFormat::BF16);
        let tr = pc3tr_bf16();
        for &(x, y) in &[(1.5f32, 1.5f32), (1.75, 1.25), (1.5, 3.0)] {
            assert_eq!(full.mul(x, y), tr.mul(x, y), "{x}*{y}");
        }
    }

    #[test]
    fn quantized_exact_matches_f64_reference() {
        let m = QuantizedExactMul::new(FpFormat::BF16);
        let x = 1.0 + 3.0 / 128.0;
        let y = 1.0 + 5.0 / 128.0;
        let expect = FpScalar::from_f32(
            (FpScalar::from_f32(x, FpFormat::BF16).to_f64()
                * FpScalar::from_f32(y, FpFormat::BF16).to_f64()) as f32,
            FpFormat::BF16,
        )
        .to_f32();
        assert_eq!(m.mul(x, y), expect);
    }

    #[test]
    fn exact_mul_name_and_behaviour() {
        let m = ExactMul;
        assert_eq!(m.mul(3.0, 4.0), 12.0);
        assert_eq!(m.name(), "float32/exact");
    }

    #[test]
    fn names_follow_convention() {
        assert_eq!(pc3tr_bf16().name(), "bfloat16/PC3_tr");
        assert_eq!(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP32).name(), "float32/FLA");
        assert_eq!(QuantizedExactMul::new(FpFormat::BF16).name(), "bfloat16/exact");
    }

    #[test]
    fn fp32_pipeline_within_pc3_envelope() {
        let m = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP32);
        let x = 1.2345678f32;
        let y = 7.654_321_f32;
        let approx = m.mul(x, y);
        let exact = x * y;
        let rel = ((exact - approx) / exact).abs();
        assert!(rel < 0.20, "rel {rel}");
        assert!(approx <= exact);
    }

    #[test]
    fn exponent_saturation() {
        let m = pc3tr_bf16();
        let big = 1e38f32;
        assert_eq!(m.mul(big, big), f32::INFINITY);
        let tiny = 1e-38f32;
        assert_eq!(m.mul(tiny, tiny), 0.0);
    }

    fn edge_values() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.5,
            -2.75,
            3.3e38,
            -3.3e38,
            1.2e-38,
            -1.2e-38,
            f32::MIN_POSITIVE / 2.0, // subnormal: flushed on decode
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            std::f32::consts::PI,
            -0.1,
        ]
    }

    /// `mul_rows` must be element-wise bit-identical to accumulating
    /// `mul` products into a `+0.0` accumulator. Zero `b` elements may
    /// either be skipped or natively multiplied (`is_native_f32`
    /// backends do the latter); both leave the same bits behind.
    fn assert_mul_rows_matches_mul(m: &dyn ScalarMul) {
        let bs = edge_values();
        for &a in &edge_values() {
            let mut batched = vec![0.0f32; bs.len()];
            m.mul_rows(a, &bs, &mut batched);
            for (j, &bv) in bs.iter().enumerate() {
                let term = if bv != 0.0 {
                    m.mul(a, bv)
                } else if m.is_native_f32() {
                    a * bv // native kernels do not test for zero
                } else {
                    0.0 // zero bypass: no accumulation at all
                };
                let expect = 0.0f32 + term;
                let got = batched[j];
                assert!(
                    got.to_bits() == expect.to_bits() || (got.is_nan() && expect.is_nan()),
                    "{}: a={a}, b={bv}: batched {got} vs scalar {expect}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn mul_rows_matches_mul_for_every_backend() {
        assert_mul_rows_matches_mul(&ExactMul);
        assert_mul_rows_matches_mul(&QuantizedExactMul::new(FpFormat::BF16));
        assert_mul_rows_matches_mul(&QuantizedExactMul::new(FpFormat::FP32));
        for config in MultiplierConfig::ALL {
            assert_mul_rows_matches_mul(&ApproxFpMul::new(config, FpFormat::BF16));
            assert_mul_rows_matches_mul(&ApproxFpMul::new(config, FpFormat::FP32));
            assert_mul_rows_matches_mul(&ApproxFpMul::new(config, FpFormat::FP16));
        }
    }

    /// `bs` as a one-tile matrix of `rows` rows, decoded by `m`.
    fn tile_of(m: &dyn ScalarMul, bs: &[f32], rows: usize) -> Option<PreparedTile> {
        let n = bs.len() / rows;
        m.prepare_tile(&TileSource::new(bs, n, Tile { l0: 0, l1: rows, j0: 0, j1: n }, false))
    }

    /// `prepare_tile` + `mul_tile_row` must be element-wise bit-identical
    /// to `mul_rows` on the same row — the contract the tiled GEMM engine
    /// is built on. Exercised over the full edge-value grid (zeros,
    /// subnormals, infinities, NaN), a dense magnitude sweep, and
    /// **both** `+0.0`- and `-0.0`-initialised accumulators — a
    /// negative-zero accumulator is flipped to `+0.0` by the signed-zero
    /// product of a *flushed* (nonzero-f32, format-zero) element, which
    /// the tile path must reproduce, not drop. The lanes are laid out as
    /// one row and as two, so full lane groups, tails and exotic lanes
    /// land in every row position.
    fn assert_tile_rows_match_mul_rows(m: &dyn ScalarMul, bs: &[f32], as_: &[f32]) {
        for rows in [1, 2].into_iter().filter(|&rows| bs.len().is_multiple_of(rows)) {
            let Some(tile) = tile_of(m, bs, rows) else {
                assert!(m.is_native_f32(), "{} has a tile form", m.name());
                continue;
            };
            let w = bs.len() / rows;
            assert_eq!((tile.raw.len(), tile.width()), (bs.len(), w));
            for r in 0..rows {
                let row = &bs[r * w..(r + 1) * w];
                for (p, b) in tile.raw_row(r).iter().zip(row) {
                    assert_eq!(
                        p.to_bits(),
                        b.to_bits(),
                        "{}: raw values must round-trip",
                        m.name()
                    );
                }
                // Zero lanes are gated away; every other lane is visited.
                assert_eq!(tile.kept(r), row.iter().filter(|&&b| b != 0.0).count(), "{}", m.name());
                for &a in as_ {
                    for init in [0.0f32, -0.0] {
                        let mut plain = vec![init; w];
                        let mut tiled = vec![init; w];
                        m.mul_rows(a, row, &mut plain);
                        m.mul_tile_row(a, &tile, r, &mut tiled);
                        for (j, (p, q)) in plain.iter().zip(&tiled).enumerate() {
                            assert!(
                                p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                                "{}: a={a}, b={}, c0={init}: mul_rows {p} vs mul_tile_row {q}",
                                m.name(),
                                row[j]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_tile_rows_match_mul_rows_for_every_backend() {
        let edges = edge_values();
        let mut dense = Vec::new();
        let mut v = 1.07e-30f32;
        while v < 1e30 {
            dense.push(v);
            dense.push(-v);
            v *= 3.9;
        }
        // Zero-heavy: runs of zeros between groups, a full group, tails.
        let sparse: Vec<f32> =
            (0..42).map(|i| if i % 3 == 0 || i > 30 { 1.25 + i as f32 } else { 0.0 }).collect();
        let backends: Vec<Box<dyn ScalarMul>> = {
            let mut v: Vec<Box<dyn ScalarMul>> = vec![
                Box::new(ExactMul),
                Box::new(QuantizedExactMul::new(FpFormat::BF16)),
                Box::new(QuantizedExactMul::new(FpFormat::FP32)),
            ];
            for config in MultiplierConfig::ALL {
                v.push(Box::new(ApproxFpMul::new(config, FpFormat::BF16)));
                v.push(Box::new(ApproxFpMul::new(config, FpFormat::FP16)));
                v.push(Box::new(ApproxFpMul::new(config, FpFormat::FP32)));
            }
            v
        };
        for m in &backends {
            assert_tile_rows_match_mul_rows(m.as_ref(), &edges, &edges);
            assert_tile_rows_match_mul_rows(m.as_ref(), &dense, &[0.37, -11.0, 1.0, 255.4]);
            assert_tile_rows_match_mul_rows(m.as_ref(), &sparse, &[0.37, -1e-3, f32::NAN]);
            assert_tile_rows_match_mul_rows(m.as_ref(), &[0.0; 16], &[1.5]);
            assert_tile_rows_match_mul_rows(m.as_ref(), &[], &[1.5]);
        }
    }

    #[test]
    fn tile_decode_is_deterministic_across_parallel_blocks() {
        // 19 rows: two full 8-row blocks and a partial one.
        let m = pc3tr_bf16();
        let (rows, n) = (19usize, 13usize);
        let mut bs = Vec::new();
        for i in 0..rows * n {
            bs.push(edge_values()[(i * 7) % edge_values().len()]);
        }
        let src =
            |parallel| TileSource::new(&bs, n, Tile { l0: 0, l1: rows, j0: 0, j1: n }, parallel);
        let serial = m.prepare_tile(&src(false)).expect("fast format");
        let parallel = m.prepare_tile(&src(true)).expect("fast format");
        assert_eq!(serial.form, parallel.form);
        assert_eq!(serial.slabs, parallel.slabs);
        let bits = |t: &PreparedTile| t.raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn foreign_tiles_fall_back_correctly() {
        // A tile prepared by one backend fed to another must still match
        // the consumer's own `mul_rows` semantics (unaccelerated path).
        let bs = edge_values();
        let preparers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP16)),
        ];
        let consumers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(QuantizedExactMul::new(FpFormat::FP32)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC2, FpFormat::BF16)),
        ];
        for preparer in &preparers {
            let tile = tile_of(preparer.as_ref(), &bs, 1).expect("caching backend");
            for consumer in &consumers {
                for &a in &[1.5f32, -0.37, 0.0] {
                    let mut plain = vec![0.0f32; bs.len()];
                    let mut tiled = vec![0.0f32; bs.len()];
                    consumer.mul_rows(a, &bs, &mut plain);
                    consumer.mul_tile_row(a, &tile, 0, &mut tiled);
                    for (p, q) in plain.iter().zip(&tiled) {
                        assert!(
                            p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                            "tile from {} into {}: a={a}: {p} vs {q}",
                            preparer.name(),
                            consumer.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mul_rows_dense_value_sweep_pc3_tr() {
        // A dense magnitude sweep through the fused fast path: the
        // bit-encode must agree with the FpScalar round-trip everywhere.
        let m = pc3tr_bf16();
        let mut bs = Vec::new();
        let mut v = 1.07e-30f32;
        while v < 1e30 {
            bs.push(v);
            bs.push(-v);
            v *= 3.9;
        }
        for &a in &[0.37f32, -11.0, 1.0, 255.4, 1e-3, -9.9e20] {
            let mut batched = vec![0.0f32; bs.len()];
            m.mul_rows(a, &bs, &mut batched);
            for (j, &bv) in bs.iter().enumerate() {
                assert_eq!(batched[j].to_bits(), m.mul(a, bv).to_bits(), "a={a}, b={bv}");
            }
        }
    }

    #[test]
    fn default_mul_rows_equals_overrides() {
        // A wrapper that erases the override, forcing the trait default.
        #[derive(Debug)]
        struct DefaultOnly<'a>(&'a dyn ScalarMul);
        impl fmt::Display for DefaultOnly<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "default({})", self.0)
            }
        }
        impl ScalarMul for DefaultOnly<'_> {
            fn mul(&self, x: f32, y: f32) -> f32 {
                self.0.mul(x, y)
            }
        }
        let backends: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP32)),
        ];
        let bs = edge_values();
        for m in &backends {
            for &a in &edge_values() {
                let mut fast = vec![0.0f32; bs.len()];
                let mut slow = vec![0.0f32; bs.len()];
                m.mul_rows(a, &bs, &mut fast);
                DefaultOnly(m.as_ref()).mul_rows(a, &bs, &mut slow);
                for (f, s) in fast.iter().zip(&slow) {
                    assert!(
                        f.to_bits() == s.to_bits() || (f.is_nan() && s.is_nan()),
                        "{}: a={a}: override {f} vs default {s}",
                        m.name()
                    );
                }
            }
        }
    }

    /// The `f32` a pre-normalised read-out encodes for sign `sign` and
    /// exponent sum `exp_sum` (in range), as `combine_lanes` builds it.
    fn from_norm(sign: bool, exp_sum: i32, e: u32) -> f32 {
        let exp = exp_sum + (e >> 23) as i32;
        f32::from_bits(((sign as u32) << 31) | (((exp + 127) as u32) << 23) | (e & 0x7F_FFFF))
    }

    #[test]
    fn prenormalised_rows_match_fuse_combine_on_the_raw_table() {
        // Every entry of the memoized pre-normalised rows, for every
        // config at every table width, against the scalar normaliser
        // applied to the raw product-table read-out.
        for n in 5u32..=8 {
            let format = FpFormat::new(8, n - 1).unwrap();
            for config in MultiplierConfig::ALL {
                let m = ApproxFpMul::new(config, format);
                let mult = m.mantissa_multiplier();
                for a in 1u64 << (n - 1)..1 << n {
                    let prep = mult.prepare(a);
                    for b in 1u32 << (n - 1)..1 << n {
                        let [e] = mult.norm_lanes_trusted(&prep, &[b]);
                        let raw = mult.multiply(a, b as u64);
                        for (sign, exp_sum) in [(false, 0), (true, -3), (false, 9)] {
                            let expect = m.fuse_combine(sign, exp_sum, raw);
                            assert_eq!(
                                from_norm(sign, exp_sum, e).to_bits(),
                                expect.to_bits(),
                                "{config} n={n}: a={a:#x} b={b:#x}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_path_normalises_like_fuse_combine() {
        // Widths without a table renormalise their chunk read-out into
        // the same form (seeded operand sample).
        let mut state = 0x5EED_0002u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for format in [FpFormat::FP16, FpFormat::TF32, FpFormat::FP32] {
            let n = format.mantissa_width();
            let lead = 1u64 << (n - 1);
            for config in MultiplierConfig::ALL {
                let m = ApproxFpMul::new(config, format);
                let mult = m.mantissa_multiplier();
                for _ in 0..64 {
                    let a = lead | (next() & bits::mask(n - 1));
                    let prep = mult.prepare(a);
                    let bs: [u32; LANES] =
                        std::array::from_fn(|_| (lead | (next() & bits::mask(n - 1))) as u32);
                    let norms = mult.norm_lanes_trusted(&prep, &bs);
                    for (&b, &e) in bs.iter().zip(&norms) {
                        let raw = mult.multiply(a, b as u64);
                        assert_eq!(
                            from_norm(true, -1, e).to_bits(),
                            m.fuse_combine(true, -1, raw).to_bits(),
                            "{config} n={n}: a={a:#x} b={b:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_decode_matches_from_f32() {
        // All 2^16 upper halves (sign, exponent, top mantissa bits) with
        // low halves that straddle every predefined format's rounding
        // point: ties, just-below/above ties, carries into the exponent.
        let lows = [
            0x0000u32, 0x0001, 0x0FFF, 0x1000, 0x1001, 0x2000, 0x3000, 0x7FFF, 0x8000, 0x8001,
            0xC000, 0xFFFF,
        ];
        for format in [FpFormat::FP32, FpFormat::BF16, FpFormat::FP16, FpFormat::TF32] {
            let dec = LaneDecoder::new(format);
            for hi in 0..=0xFFFFu32 {
                for lo in lows {
                    let bits = (hi << 16) | lo;
                    let x = f32::from_bits(bits);
                    let ys = FpScalar::from_f32(x, format);
                    let lane = dec.decode(bits);
                    let class = (lane.normal, lane.exotic);
                    match ys.class() {
                        FpClass::Normal => {
                            assert_eq!(class, (true, false), "{format}: bits {bits:#010x}");
                            assert_eq!(
                                (lane.man, lane.exp, lane.sign),
                                (ys.mantissa() as u32, ys.exponent(), (ys.sign() as u32) << 31),
                                "{format}: bits {bits:#010x}"
                            );
                        }
                        FpClass::Zero => {
                            assert_eq!(class, (false, x != 0.0), "{format}: bits {bits:#010x}")
                        }
                        FpClass::Inf | FpClass::Nan => {
                            assert_eq!(class, (false, true), "{format}: bits {bits:#010x}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trait_object_usable() {
        let muls: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(ExactMul),
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
        ];
        for m in &muls {
            assert_eq!(m.mul(1.0, 1.0), 1.0, "{}", m.name());
        }
    }
}

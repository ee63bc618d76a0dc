use crate::config::{MultiplierConfig, OperandMode};
use crate::gemm::{GemmBackend, Tile};
use crate::mantissa::{MantissaMultiplier, PreparedMultiplicand};
use crate::tile_kernel::{
    self, decoded_stride, f32_encodable, DecodedRow, Encode, LaneDecoder, Narrow, SIGN,
};
use daism_num::{bits, encode_normal_f32, FpClass, FpFormat, FpScalar};
use rayon::prelude::*;
use std::fmt;

/// Elements per lane group in the lane-packed approximate multiply
/// kernel (one pre-normalised read-out gather per group).
const LANES: usize = 8;

/// One `KC × NC` tile of the streamed B operand, as the GEMM engine
/// decodes it into a [`PreparedTile`]: rows `l0..l1` and columns
/// `j0..j1` of a row-major matrix `n` columns wide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileSource<'a> {
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

/// The format the GEMM engine decodes `m`'s B tiles into: its
/// [`ScalarMul::tile_format`], when that format is `f32`-encodable.
/// `None` means `m` consumes raw B rows through the fused
/// [`mul_rows`](ScalarMul::mul_rows) loop.
pub(crate) fn decoded_format(m: &dyn ScalarMul) -> Option<FpFormat> {
    m.tile_format().filter(|&format| f32_encodable(format))
}

/// One B tile decoded once for many [`ScalarMul::mul_tile_rows`] calls —
/// the operand conversion the GEMM engine hoists out of the MAC loop
/// (one decode per tile *element*, reused by every C row). Each call
/// runs one C row's A elements over the tile's depth against the tile's
/// rows, one driver per row.
///
/// Decoded by the GEMM engine into the format a backend's
/// [`ScalarMul::tile_format`] names. A tile belongs to the format
/// it was rounded into, not to the backend that asked for it: every
/// lane is decoded into its format straight from the `f32` bits
/// (round-to-nearest-even, carry, range checks; exactly
/// [`FpScalar::from_f32`]) and kept as one `u32` word, the `f32` bits of
/// the format-rounded value. So only the `f32`-encodable formats have
/// this form, and every tile-decoding backend of the format reads the
/// same tile: [`ApproxFpMul`]'s lane MACs and [`QuantizedExactMul`]'s
/// exact products alike. The tile is its format's bank image and
/// nothing else: it keeps no copy of the values it was decoded from,
/// so a backend of another format cannot read it.
///
/// Each tile row is a slab of fixed stride (a function of the tile
/// width) that records which lanes reach the multiplier, followed by the
/// row's count of kept lanes. Zero lanes never reach C — the hardware's
/// zero gating (paper §III-C). A sparse row keeps only its nonzero
/// lanes, packed at the front with their column index, so the MAC loop
/// never visits the zeros and its cost follows the nonzeros; a row with
/// at least a quarter of its lanes kept is stored in place instead, and
/// the MACs mask its zero lanes off. Exotic lanes — Inf/NaN, a value that
/// saturates, or a nonzero `f32` that flushes to format zero, whose
/// signed-zero product the scalar path *accumulates* rather than skips —
/// are listed per row with their format-rounded value (±0, ±Inf or NaN,
/// all a product reads of them), and take the exact side logic (the
/// module docs of `tile_kernel` give the layout).
///
/// A stored B ([`GemmBackend::prepare_b`]) owns one tile per `KC × NC`
/// block. An eager [`gemm`](crate::gemm) decodes every block into one
/// tile owned by the calling thread, reused across calls: its buffers
/// stay at the largest tile the thread has decoded, one `KC × NC` tile
/// at most.
#[derive(Debug, Clone)]
pub struct PreparedTile {
    width: usize,
    /// One `decoded_stride(width)`-word slab per row.
    pub(crate) slabs: Vec<u32>,
    /// The format the lanes were rounded into.
    pub(crate) format: FpFormat,
}

impl PreparedTile {
    /// Decodes `src` into `format` as a new tile, its buffers allocated
    /// to size (see [`decode_into`](Self::decode_into)).
    pub(crate) fn decode(src: &TileSource<'_>, format: FpFormat, simd: bool) -> Self {
        let mut tile = PreparedTile { width: 0, slabs: Vec::new(), format };
        tile.decode_into(src, format, simd);
        tile
    }

    /// Decodes `src` into `format` in place of this tile's contents, with
    /// the AVX-512 row decode when `simd` asks for it and the host has
    /// it — across the pool, in 8-row blocks, when the source asks for
    /// it. Every slab has a fixed place, so blocks write disjoint memory
    /// and scheduling cannot change the tile. The buffers are cleared
    /// and resized, not reallocated unless they must grow: the tile's
    /// bytes are those of a fresh [`decode`](Self::decode), and its
    /// capacity stays at the largest tile decoded into it.
    ///
    /// # Panics
    ///
    /// Panics unless `format` is `f32`-encodable ([`decoded_format`]
    /// names only those).
    pub(crate) fn decode_into(&mut self, src: &TileSource<'_>, format: FpFormat, simd: bool) {
        let (dec, stride) = (LaneDecoder::new(format), decoded_stride(src.width()));
        self.slabs.clear();
        self.slabs.resize(src.rows() * stride, 0);
        (self.width, self.format) = (src.width(), format);
        let decode_block = |r0: usize, block: &mut [u32]| {
            for (r, slab) in block.chunks_exact_mut(stride).enumerate() {
                dec.decode_row(src.row(r0 + r), slab, simd);
            }
        };
        if src.parallel {
            self.slabs
                .par_chunks_mut(8 * stride)
                .enumerate()
                .for_each(|(bi, block)| decode_block(bi * 8, block));
        } else {
            decode_block(0, &mut self.slabs);
        }
    }

    /// Columns in the tile.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The nonzero lanes of row `r` as `(column, value)`, each value the
    /// lane's format-rounded `f32`: the kept lanes in column order, then
    /// the exotic ones. Every column appears at most once; the zero
    /// lanes, which never reach C, are absent.
    pub fn lanes(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.row(r).lanes()
    }

    /// The decoded slab of row `r`.
    fn row(&self, r: usize) -> DecodedRow<'_> {
        DecodedRow::new(&self.slabs, self.width, r)
    }
}

/// A scalar multiplication backend: the seam through which the DNN crates
/// and the architecture model plug in exact or approximate arithmetic.
///
/// Implementors must be deterministic and side-effect free; `mul` is
/// called billions of times by the accuracy experiments. Every
/// implementor is a [`GemmBackend`] (products through
/// [`gemm`](crate::gemm)), named in reports by its `Display` form.
///
/// The GEMM engine calls a backend at three grains: [`mul`](Self::mul)
/// per product, [`mul_rows`](Self::mul_rows) per (A element, raw B row)
/// and, on a decoded tile, [`mul_tile_rows`](Self::mul_tile_rows) per
/// (C row, tile): one run of A elements, each against one tile row. The
/// run form lets a backend pay its per-call set-up once per run and keep
/// a narrow C row in registers across the drivers.
///
/// Operand roles: B is the *prepared* operand (decoded once per tile,
/// or once by [`GemmBackend::prepare_b`]), but every approximate
/// product is `multiply(a_man, b_man)`. A's mantissa is the multiplicand
/// whose line patterns are ORed, and B's drives the decoder: the reverse
/// of the hardware, which ORs the stored operand's patterns (paper
/// §III-B). ROADMAP item 1 flips the product so the stored B is the
/// multiplicand.
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

    /// The format this backend's B tiles are decoded into, ahead of
    /// many [`mul_tile_rows`](Self::mul_tile_rows) calls against their
    /// rows.
    ///
    /// This is the second amortisation rung above
    /// [`mul_rows`](Self::mul_rows): `mul_rows` hoists the *A*-operand
    /// work out of the row loop, a decoded tile hoists the *B*-operand
    /// decode out of the MAC loop entirely — the GEMM engine decodes
    /// each `KC×NC` B tile once into a [`PreparedTile`] and reuses it
    /// for every C row, so the per-MAC `FpScalar::from_f32` disappears,
    /// and the zero lanes the hardware gates never reach C: a sparse row
    /// drops them, a dense one marks them for the MAC to mask. The
    /// engine owns the decode; a backend only names the format.
    ///
    /// `None` (the default), or a format that is not `f32`-encodable,
    /// means the backend has no cheaper form: the engine keeps the raw
    /// fused [`mul_rows`](Self::mul_rows) loop.
    fn tile_format(&self) -> Option<FpFormat> {
        None
    }

    /// One run of drivers against a tile decoded into
    /// [`tile_format`](Self::tile_format): `a_run[r]` drives tile row
    /// `r`, and for every `r` with `a_run[r] != 0.0`, in ascending `r`,
    /// `c[j] += mul(a_run[r], b[j])` for every `j` with `b[j] != 0.0`.
    /// The GEMM engine issues one call per (C row, tile): the loop shape
    /// of the hardware's read (paper §III-B), one input against every
    /// stored value, with the operand roles the trait docs describe. A
    /// zero driver bypasses the array (§III-C) and is
    /// skipped here, not by the caller; zero B lanes follow the
    /// [`mul_rows`](Self::mul_rows) contract.
    ///
    /// The same **bit-identity requirement** holds: the result must
    /// equal `mul_rows(a_run[r], b_r, c)` over the nonzero drivers in
    /// ascending `r` exactly, with `b_r` the row tile row `r` was decoded
    /// from (the run-form tests and the differential GEMM suite enforce
    /// this). The engine hands a backend only tiles of its own
    /// `tile_format`.
    ///
    /// The default runs [`mul`](Self::mul) over each driven row's
    /// [`lanes`](PreparedTile::lanes): equal to `mul_rows` on the row for
    /// a backend whose `mul` rounds its operands into the format it
    /// names, since rounding into a format is idempotent.
    ///
    /// # Panics
    ///
    /// May panic if `a_run` is longer than the tile or `c.len() !=
    /// tile.width()`.
    fn mul_tile_rows(&self, a_run: &[f32], tile: &PreparedTile, c: &mut [f32]) {
        for (r, a) in drivers(a_run) {
            for (col, v) in tile.lanes(r) {
                c[col] += self.mul(a, v);
            }
        }
    }
}

/// The nonzero drivers of a run as `(tile row, value)`, in ascending
/// row order: a zero input bypasses the array (paper §III-C).
fn drivers(a_run: &[f32]) -> impl Iterator<Item = (usize, f32)> + '_ {
    a_run.iter().enumerate().filter(|(_, &a)| a != 0.0).map(|(r, &a)| (r, a))
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

    /// An operand quantized into the format, as the exact `f64` the
    /// product consumes.
    #[inline]
    fn quantize(&self, x: f32) -> f64 {
        FpScalar::from_f32(x, self.format).to_f64()
    }

    /// The product of two quantized operands, re-quantized.
    #[inline]
    fn product(&self, xq: f64, yq: f64) -> f32 {
        FpScalar::from_f32((xq * yq) as f32, self.format).to_f32()
    }
}

impl fmt::Display for QuantizedExactMul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/exact", self.format)
    }
}

impl ScalarMul for QuantizedExactMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        self.product(self.quantize(x), self.quantize(y))
    }

    fn mul_rows(&self, a: f32, b: &[f32], c: &mut [f32]) {
        // Quantize the reused operand once per panel; per-element math is
        // unchanged, so results stay bit-identical to `mul`.
        let xq = self.quantize(a);
        for (cv, bv) in c.iter_mut().zip(b) {
            if *bv != 0.0 {
                *cv += self.product(xq, self.quantize(*bv));
            }
        }
    }

    fn tile_format(&self) -> Option<FpFormat> {
        Some(self.format)
    }

    // Not the trait default: that calls `mul`, which re-quantizes both
    // operands per product; it ran this backend's engine 2–3× slower at
    // 64³ (≈16 → 44 ns/MAC, one worker on a 2-core AVX-512 Xeon).
    fn mul_tile_rows(&self, a_run: &[f32], tile: &PreparedTile, c: &mut [f32]) {
        debug_assert_eq!((tile.format, tile.width), (self.format, c.len()), "tile mismatch");
        // Every lane's value is the format-rounded `f32`: exactly the `yq`
        // that `mul_rows` re-derives per element (a NaN's payload aside,
        // which the product drops). Only the result quantization (which
        // depends on `a`) remains in the loop.
        for (r, a) in drivers(a_run) {
            let xq = self.quantize(a);
            for (col, v) in tile.lanes(r) {
                c[col] += self.product(xq, v as f64);
            }
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
}

impl ApproxFpMul {
    /// Builds the pipeline for a multiplier configuration and operand
    /// format.
    pub fn new(config: MultiplierConfig, format: FpFormat) -> Self {
        let mult = MantissaMultiplier::new(config, OperandMode::Fp, format.mantissa_width());
        ApproxFpMul { format, mult }
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
    /// from the already-XORed sign and already-summed exponent: no
    /// `FpScalar` round-trip (and no `powi`), but the same
    /// normalisation, the same saturation and the same panic on a
    /// denormalised read-out — **bit-identical** results, asserted by
    /// the `mul_rows`-vs-`mul` equivalence tests. Only valid for an
    /// `f32`-encodable format (checked by callers).
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

    /// The portable lane MAC, for every row the AVX-512 kernels do not
    /// take: `c[col] +=` the product of multiplicand mantissa `man` with
    /// each kept lane of `row`, encoded as `encode` says. It walks the
    /// row's kept columns in both layouts (see
    /// [`mac_lanes`](Self::mac_lanes)).
    fn mac_portable(&self, man: u64, row: &DecodedRow<'_>, c: &mut [f32], encode: Encode) {
        let prep = self.mult.prepare(man);
        let full = row.cols.len() / LANES * LANES;
        let (cols, tail_cols) = row.cols.split_at(full);
        let (words, tail) =
            if row.dense { (row.words, row.words) } else { row.words.split_at(full) };
        self.mac_lanes::<LANES>(&prep, words, cols, row.dense, c, encode);
        self.mac_lanes::<1>(&prep, tail, tail_cols, row.dense, c, encode);
    }

    /// The products of one group of pre-normalised read-outs (see
    /// [`prenormalise`](crate::mantissa::prenormalise)) with the kept
    /// lanes' `words`, encoded as `encode` says. The select encode is
    /// the exponent add (the renormalise increment rides in bit 23), a
    /// branch-free encode (saturation/flush as exponent-range selects)
    /// and one OR with sign and fraction. All lanes are fixed-width
    /// arrays, so the whole group autovectorizes on stable.
    /// Bit-identical to [`fuse_combine`](Self::fuse_combine) on every
    /// lane. Only valid for an `f32`-encodable format and for read-outs
    /// of `Normal` operands.
    #[inline(always)]
    fn product_lanes<const L: usize>(
        &self,
        norm: &[u32; L],
        words: &[u32; L],
        encode: Encode,
    ) -> [f32; L] {
        let mut out = [0.0f32; L];
        match encode {
            Encode::TwoAdd(aword) => {
                for ((o, &w), &e) in out.iter_mut().zip(words).zip(norm) {
                    *o = f32::from_bits(tile_kernel::encode_product(w, aword, e));
                }
            }
            Encode::Select { xsign, xexp } => {
                let (max_exp, min_exp) = (self.format.max_exp(), self.format.min_exp());
                for ((o, &w), &e) in out.iter_mut().zip(words).zip(norm) {
                    let exp = xexp + ((w >> 23) & 0xFF) as i32 - 127 + (e >> 23) as i32;
                    let sign = xsign ^ (w & 0x8000_0000);
                    // `encode_normal_f32` with saturation/flush as
                    // selects; the out-of-range lanes' `normal` bits are
                    // garbage that the select discards.
                    let normal = sign | (((exp + 127) as u32) << 23) | (e & 0x7F_FFFF);
                    let pbits = if exp > max_exp {
                        sign | 0x7F80_0000 // saturate to (signed) infinity
                    } else if exp < min_exp {
                        sign // flush to (signed) zero
                    } else {
                        normal
                    };
                    *o = f32::from_bits(pbits);
                }
            }
        }
        out
    }

    /// Multiply-accumulates runs of `L` kept lanes into their C columns:
    /// the lanes' mantissas, one pre-normalised gather (or chunk read)
    /// and one [`product_lanes`](Self::product_lanes) per run, then a
    /// scatter-add. A lane's word is `words[col]` on a dense row and the
    /// next packed word otherwise. Within a tile row every column appears
    /// once, so the scatter order cannot matter. `cols.len()` must be a
    /// multiple of `L`.
    #[inline]
    fn mac_lanes<const L: usize>(
        &self,
        prep: &PreparedMultiplicand,
        words: &[u32],
        cols: &[u32],
        dense: bool,
        c: &mut [f32],
        encode: Encode,
    ) {
        if dense {
            for cols in cols.chunks_exact(L) {
                let mut run = [0u32; L];
                for (w, &col) in run.iter_mut().zip(cols) {
                    *w = words[col as usize];
                }
                self.mac_run(prep, &run, cols, c, encode);
            }
        } else {
            for (run, cols) in words.chunks_exact(L).zip(cols.chunks_exact(L)) {
                self.mac_run::<L>(prep, run.try_into().expect("lane run"), cols, c, encode);
            }
        }
    }

    /// One run of [`mac_lanes`](Self::mac_lanes): fixed-width arrays,
    /// index-free lanes the compiler can keep in vector registers.
    #[inline(always)]
    fn mac_run<const L: usize>(
        &self,
        prep: &PreparedMultiplicand,
        words: &[u32; L],
        cols: &[u32],
        c: &mut [f32],
        encode: Encode,
    ) {
        let shift = 24 - self.format.mantissa_width();
        // A plain write loop: `array::map` here measured markedly slower
        // (see `mul_lanes_trusted`).
        let mut mans = [0u32; L];
        for (m, &w) in mans.iter_mut().zip(words) {
            *m = tile_kernel::word_mantissa(w, shift);
        }
        let norm = self.mult.norm_lanes_trusted(prep, &mans);
        for (&col, p) in cols.iter().zip(self.product_lanes(&norm, words, encode)) {
            c[col as usize] += p;
        }
    }

    /// [`mul_tile_rows`](ScalarMul::mul_tile_rows), with the AVX-512
    /// kernels when `simd` asks for them and the host has them.
    ///
    /// The kernel detection and the range constants are paid once per
    /// run. A tile narrow enough for its C row to stay in vector
    /// registers ([`tile_kernel::NARROW_LANES`]) on a
    /// product-table multiplier takes the narrow register MAC: one gather
    /// from each driver's pre-normalised product row, the two-add encode
    /// and one masked add per register, with every row that kernel does
    /// not take handed to the per-driver MAC in place. Every other run
    /// goes driver by driver.
    fn mul_tile_rows_with(&self, a_run: &[f32], tile: &PreparedTile, c: &mut [f32], simd: bool) {
        debug_assert_eq!((tile.format, tile.width), (self.format, c.len()), "tile mismatch");
        let run = RunConsts {
            simd: simd && tile_kernel::simd_available(),
            range: (self.format.min_exp(), self.format.max_exp()),
        };
        if run.simd && self.mult.chunk_plan().is_none() && tile.width <= tile_kernel::NARROW_LANES {
            let dec = LaneDecoder::new(self.format);
            let shift = 24 - self.format.mantissa_width();
            let step = |r: usize, a: f32| {
                // The driver's word carries exactly what `FpScalar`
                // would: its class, sign, exponent and mantissa.
                let lane = dec.decode(a.to_bits());
                let row = tile.row(r);
                if row.words.is_empty() && row.exotic.is_empty() {
                    return Narrow::Skip; // every lane gated
                }
                let xexp = ((lane.word >> 23) & 0xFF) as i32 - 127;
                if !lane.normal || !row.dense || !row.exotic.is_empty() || !run.in_range(xexp, &row)
                {
                    return Narrow::Fallback;
                }
                let man = tile_kernel::word_mantissa(lane.word, shift) as u64;
                Narrow::Mac {
                    words: row.words,
                    norm: self.mult.norm_row(man).expect("a product-table multiplier"),
                    aword: (lane.word & SIGN).wrapping_add((xexp as u32) << 23),
                }
            };
            let fallback = |r: usize, a: f32, c: &mut [f32]| self.mac_driver(run, a, tile, r, c);
            if tile_kernel::mac_narrow(a_run, c, step, fallback, run.simd) {
                return;
            }
        }
        for (r, a) in drivers(a_run) {
            self.mac_driver(run, a, tile, r, c);
        }
    }

    /// One nonzero driver `a` of a run against tile row `r`. Inlined
    /// into the driver loop: out of line, fp16's 9-lane `grad_w` rows ran
    /// about 8% slower than the per-driver calls this loop replaces.
    #[inline(always)]
    fn mac_driver(&self, run: RunConsts, a: f32, tile: &PreparedTile, r: usize, c: &mut [f32]) {
        let xs = FpScalar::from_f32(a, self.format);
        if xs.class() != FpClass::Normal {
            // NaN / Inf / flushed multiplicand: rare, the exact side logic
            // on every nonzero lane. A non-`Normal` operand is fully
            // described by its class and sign, all `mul_scalars` reads.
            for (col, v) in tile.lanes(r) {
                c[col] += self.mul_scalars(&xs, &FpScalar::from_f32(v, self.format)).to_f32();
            }
            return;
        }
        let row = tile.row(r);
        if !row.words.is_empty() {
            // Per-driver work: one decode of `a`, the row's range check and
            // binding `a`'s table row (or building its chunk tables).
            // Per-MAC work: one read from the pre-normalised product row
            // (or one lookup per chunk plus the same renormalise), the
            // product encode and one add into C. Only kept lanes reach C:
            // a compressed row dropped its zero lanes at decode, a dense
            // row masks them off by their zero word — exactly the lanes
            // the scalar path's `bv == 0.0` test skips, so results stay
            // bit-identical (the run-form tests and the differential GEMM
            // suite enforce this).
            let (xsign, xexp) = ((xs.sign() as u32) << 31, xs.exponent());
            let encode = if run.in_range(xexp, &row) {
                Encode::TwoAdd(xsign.wrapping_add((xexp as u32) << 23))
            } else {
                Encode::Select { xsign, xexp }
            };
            // On a host with AVX-512F, the chunk-table MAC takes every
            // row of a chunk-table multiplier whose read-out fits in 32
            // bits, and the product-table MAC the in-range rows of a
            // table multiplier; every other row runs the portable lane
            // MAC. fp16's narrow exponent range makes out-of-range rows
            // common (about 15% of the chunk MAC's lanes when serving
            // perfbench's CNN, none of bf16's), so only the chunk MAC
            // also vectorizes the select encode.
            let man = xs.mantissa();
            let vectorized = match (encode, self.mult.chunk_plan()) {
                (_, Some(plan)) => {
                    tile_kernel::mac_chunks(plan, man, encode, run.range, &row, c, run.simd)
                }
                (Encode::TwoAdd(aword), None) => {
                    let norm = self.mult.norm_row(man).expect("a product-table multiplier");
                    tile_kernel::mac_table(norm, aword, &row, c, run.simd)
                }
                (Encode::Select { .. }, None) => false,
            };
            if !vectorized {
                self.mac_portable(man, &row, c, encode);
            }
        }
        for (col, v) in row.exotic_lanes() {
            // Inf/NaN, saturated or flushed-nonzero: exact side logic.
            c[col] += self.mul_scalars(&xs, &FpScalar::from_f32(v, self.format)).to_f32();
        }
    }
}

/// What every driver of one [`ApproxFpMul`] run shares, derived once per
/// [`mul_tile_rows`](ScalarMul::mul_tile_rows) call.
#[derive(Debug, Clone, Copy)]
struct RunConsts {
    /// Run the AVX-512 kernels: asked for, and the host has them.
    simd: bool,
    /// The format's normal exponents, `(min_exp, max_exp)`.
    range: (i32, i32),
}

impl RunConsts {
    /// Whether every product of a `Normal` multiplicand of exponent
    /// `xexp` with a decoded row is a normal of the format: the least
    /// product exponent `xexp + emin` and the greatest `xexp + emax + 1`
    /// (the renormalise increment) are both in range. Then each product
    /// is the two-add encode; otherwise some may saturate or flush.
    fn in_range(&self, xexp: i32, row: &DecodedRow<'_>) -> bool {
        let (emin, emax) = (row.emin as i32 - 127, row.emax as i32 - 127);
        xexp + emin >= self.range.0 && xexp + emax < self.range.1
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
        if xs.class() != FpClass::Normal || !f32_encodable(self.format) {
            // Zero / NaN / Inf multiplicand: rare, handled by the exact
            // side logic — no mantissa work to hoist. A format wider than
            // `f32` has no fused encode and takes the same per-element
            // pipeline.
            for (cv, bv) in c.iter_mut().zip(b) {
                if *bv != 0.0 {
                    *cv += self.mul_scalars(&xs, &FpScalar::from_f32(*bv, self.format)).to_f32();
                }
            }
            return;
        }
        let prep = self.mult.prepare(xs.mantissa());
        for (cv, bv) in c.iter_mut().zip(b) {
            if *bv == 0.0 {
                continue; // zero bypass (§III-C) — never touches the array
            }
            let ys = FpScalar::from_f32(*bv, self.format);
            *cv += if ys.class() == FpClass::Normal {
                let [raw] = self.mult.mul_lanes_trusted(&prep, &[ys.mantissa()]);
                self.fuse_combine(xs.sign() ^ ys.sign(), xs.exponent() + ys.exponent(), raw)
            } else {
                self.mul_scalars(&xs, &ys).to_f32()
            };
        }
    }

    fn tile_format(&self) -> Option<FpFormat> {
        Some(self.format)
    }

    fn mul_tile_rows(&self, a_run: &[f32], tile: &PreparedTile, c: &mut [f32]) {
        self.mul_tile_rows_with(a_run, tile, c, true)
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

    /// `bs` as a one-tile matrix of `rows` rows, `n` wide.
    fn source(bs: &[f32], rows: usize) -> TileSource<'_> {
        let n = bs.len() / rows;
        TileSource::new(bs, n, Tile { l0: 0, l1: rows, j0: 0, j1: n }, false)
    }

    /// `bs` as a one-tile matrix of `rows` rows, decoded as the engine
    /// decodes it for `m`.
    fn tile_of(m: &dyn ScalarMul, bs: &[f32], rows: usize) -> Option<PreparedTile> {
        decoded_format(m).map(|format| PreparedTile::decode(&source(bs, rows), format, true))
    }

    /// The runs [`assert_tile_rows_match_mul_rows`] and
    /// [`assert_kernels_match_mul_rows`] drive a `rows`-row tile with:
    /// each A value alone on each row, then each rotation of `as_`
    /// across the rows, so runs mix normal, zero and exotic drivers.
    fn runs(rows: usize, as_: &[f32]) -> Vec<Vec<f32>> {
        let mut runs = Vec::new();
        for r in 0..rows {
            for &a in as_ {
                let mut run = vec![0.0f32; rows];
                run[r] = a;
                runs.push(run);
            }
        }
        for s in 0..as_.len() {
            runs.push((0..rows).map(|r| as_[(r + s) % as_.len()]).collect());
        }
        runs
    }

    /// Bit equality, with any NaN matching any NaN.
    fn same_bits(p: f32, q: f32) -> bool {
        p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan())
    }

    /// Per-driver `mul_rows` on the source rows a tile was decoded from
    /// (`bs` as `rows` rows), in ascending row order: what
    /// [`ScalarMul::mul_tile_rows`] on the tile must equal.
    fn mul_source_rows<M: ScalarMul + ?Sized>(
        m: &M,
        a_run: &[f32],
        bs: &[f32],
        rows: usize,
        c: &mut [f32],
    ) {
        let w = bs.len() / rows;
        for (r, a) in drivers(a_run) {
            m.mul_rows(a, &bs[r * w..(r + 1) * w], c);
        }
    }

    /// A decoded tile + `mul_tile_rows` must be element-wise bit-identical
    /// to per-driver `mul_rows` on the same rows — the contract the tiled
    /// GEMM engine is built on. Exercised over the full edge-value grid
    /// (zeros, subnormals, infinities, NaN), a dense magnitude sweep, and
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
            assert_eq!(tile.width(), w, "{}", m.name());
            for r in 0..rows {
                let row = &bs[r * w..(r + 1) * w];
                // Zero lanes are gated away; every other lane is visited.
                assert_eq!(
                    tile.lanes(r).count(),
                    row.iter().filter(|&&b| b != 0.0).count(),
                    "{}",
                    m.name()
                );
            }
            for a_run in runs(rows, as_) {
                for init in [0.0f32, -0.0] {
                    let mut plain = vec![init; w];
                    let mut tiled = vec![init; w];
                    mul_source_rows(m, &a_run, bs, rows, &mut plain);
                    m.mul_tile_rows(&a_run, &tile, &mut tiled);
                    for (j, (&p, &q)) in plain.iter().zip(&tiled).enumerate() {
                        assert!(
                            same_bits(p, q),
                            "{}: run {a_run:?}, column {j}, c0={init}: mul_rows {p} vs \
                             mul_tile_rows {q}",
                            m.name()
                        );
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
        let serial = PreparedTile::decode(&src(false), m.format, true);
        let parallel = PreparedTile::decode(&src(true), m.format, true);
        assert_eq!(serial.format, parallel.format);
        assert_eq!(serial.slabs, parallel.slabs);
    }

    #[test]
    fn decode_into_a_used_tile_equals_a_fresh_decode() {
        // One tile first takes a wide, dense source with exotic lanes,
        // then narrower and shorter ones, dense and compressed, in two
        // formats, on both decode kernels, then the wide one again. Each
        // decode must leave exactly the bytes of a fresh decode of the
        // same source — width, format and every slab word,
        // the slots past a row's counts included — and reuse the
        // buffers the wide source grew.
        let exotic = [f32::INFINITY, f32::NAN, 1e-40, -1e-40, 1e6, -1e-7];
        let value = |i: usize, zero_every: usize| match i {
            _ if i % 11 == 5 => exotic[i / 11 % exotic.len()],
            _ if i.is_multiple_of(zero_every) => [0.0, -0.0][i / zero_every % 2],
            _ => (1.0 + (i * 37 % 64) as f32 / 64.0) * 2f32.powi((i % 13) as i32 - 6),
        };
        // `(values, rows)`: a zero every 7th or 3rd lane leaves the rows
        // dense, a zero in every lane but the exotic ones compressed.
        let matrix = |rows: usize, n: usize, zero_every: usize| {
            ((0..rows * n).map(|i| value(i, zero_every)).collect::<Vec<f32>>(), rows)
        };
        let wide = matrix(40, 300, 7);
        let sparse: Vec<f32> =
            (0..5 * 64).map(|i| if i % 10 == 0 { value(i, 7) } else { 0.0 }).collect();
        let sources = [
            matrix(12, 17, 7),
            matrix(3, 100, 1),
            matrix(72, 9, 7),
            (sparse, 5),
            matrix(1, 1, 7),
            matrix(2, 299, 3),
        ];
        for simd in [false, true] {
            let mut tile = PreparedTile::decode(&source(&wide.0, wide.1), FpFormat::BF16, simd);
            let capacity = tile.slabs.capacity();
            let followers = sources.iter().zip([FpFormat::BF16, FpFormat::FP16].iter().cycle());
            for (i, ((bs, rows), &format)) in
                followers.chain([(&wide, &FpFormat::FP16)]).enumerate()
            {
                let src = source(bs, *rows);
                tile.decode_into(&src, format, simd);
                let fresh = PreparedTile::decode(&src, format, simd);
                let what = format!("source {i} ({rows} rows, {format}), simd={simd}");
                assert_eq!((tile.width, tile.format), (fresh.width, fresh.format), "{what}");
                assert_eq!(decoded_contents(&tile), decoded_contents(&fresh), "{what}");
                assert_eq!(tile.slabs, fresh.slabs, "{what}: slab words");
                assert_eq!(tile.slabs.capacity(), capacity, "{what}");
            }
        }
    }

    #[test]
    fn tiles_are_shared_by_every_backend_of_their_format() {
        // A tile decoded for one backend and fed to another of its format
        // must match the consumer's own `mul_rows` on the source row:
        // the tile belongs to the format, whichever backend asked for it.
        let bs = edge_values();
        let preparers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP16)),
        ];
        let consumers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC2, FpFormat::BF16)),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16)),
        ];
        let mut shared = 0;
        for preparer in &preparers {
            let tile = tile_of(preparer.as_ref(), &bs, 1).expect("caching backend");
            for consumer in consumers.iter().filter(|c| c.tile_format() == Some(tile.format)) {
                shared += 1;
                for &a in &[1.5f32, -0.37, 0.0] {
                    let mut plain = vec![0.0f32; bs.len()];
                    let mut tiled = vec![0.0f32; bs.len()];
                    mul_source_rows(consumer.as_ref(), &[a], &bs, 1, &mut plain);
                    consumer.mul_tile_rows(&[a], &tile, &mut tiled);
                    for (&p, &q) in plain.iter().zip(&tiled) {
                        assert!(
                            same_bits(p, q),
                            "tile from {} into {}: a={a}: {p} vs {q}",
                            preparer.name(),
                            consumer.name()
                        );
                    }
                }
            }
        }
        assert_eq!(shared, 7, "every same-format pair");
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

    #[test]
    fn default_mul_tile_rows_matches_mul_rows() {
        // The trait default — `mul` over each driven row's lanes — on
        // backends whose `mul` rounds its operands into the tile format.
        #[derive(Debug)]
        struct DefaultTiles<'a>(&'a dyn ScalarMul);
        impl fmt::Display for DefaultTiles<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "default tiles({})", self.0)
            }
        }
        impl ScalarMul for DefaultTiles<'_> {
            fn mul(&self, x: f32, y: f32) -> f32 {
                self.0.mul(x, y)
            }
            fn tile_format(&self) -> Option<FpFormat> {
                self.0.tile_format()
            }
        }
        let backends: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(pc3tr_bf16()),
            Box::new(ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP16)),
        ];
        for m in &backends {
            assert_tile_rows_match_mul_rows(
                &DefaultTiles(m.as_ref()),
                &edge_values(),
                &edge_values(),
            );
        }
    }

    /// The `f32` a pre-normalised read-out encodes for sign `sign` and
    /// exponent sum `exp_sum` (in range), as the lane MACs build it.
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

    /// The meaningful contents of every row slab of a decoded tile —
    /// layout, words, kept columns, exotic columns with their values'
    /// bits, exponent range — which both decode kernels must fill alike
    /// (slots past the counts may differ).
    type RowContents = (bool, Vec<u32>, Vec<u32>, Vec<(usize, u32)>, u32, u32);

    fn row_contents(row: &DecodedRow<'_>) -> RowContents {
        let exotic = row.exotic_lanes().map(|(col, v)| (col, v.to_bits())).collect();
        (row.dense, row.words.to_vec(), row.cols.to_vec(), exotic, row.emin, row.emax)
    }

    fn decoded_contents(tile: &PreparedTile) -> Vec<RowContents> {
        let rows = tile.slabs.len() / decoded_stride(tile.width);
        (0..rows).map(|r| row_contents(&tile.row(r))).collect()
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
        let all: Vec<u32> = (0..=0xFFFFu32).flat_map(|hi| lows.map(|lo| (hi << 16) | lo)).collect();
        for format in [FpFormat::FP32, FpFormat::BF16, FpFormat::FP16, FpFormat::TF32] {
            let dec = LaneDecoder::new(format);
            for &bits in &all {
                let x = f32::from_bits(bits);
                let ys = FpScalar::from_f32(x, format);
                let lane = dec.decode(bits);
                let class = (lane.normal, lane.exotic);
                match ys.class() {
                    FpClass::Normal => {
                        assert_eq!(class, (true, false), "{format}: bits {bits:#010x}");
                        assert_eq!(lane.word, ys.to_f32().to_bits(), "{format}: bits {bits:#010x}");
                    }
                    FpClass::Zero => {
                        assert_eq!(class, (false, x != 0.0), "{format}: bits {bits:#010x}")
                    }
                    FpClass::Inf | FpClass::Nan => {
                        assert_eq!(class, (false, true), "{format}: bits {bits:#010x}")
                    }
                }
            }
            // The row decode on both kernels against the lane decode, in
            // rows of 1000 lanes (62 full 16-lane blocks and a tail of 8),
            // and in rows of 250 with only every eighth lane left nonzero,
            // so both row layouts are checked.
            let sparse: Vec<u32> =
                all.iter().enumerate().map(|(i, &b)| if i % 8 == 0 { b } else { 0 }).collect();
            for chunk in all.chunks(1000).chain(sparse.chunks(250)) {
                let row: Vec<f32> = chunk.iter().map(|&b| f32::from_bits(b)).collect();
                let lanes: Vec<_> = chunk.iter().map(|&b| dec.decode(b)).collect();
                let kept = || lanes.iter().enumerate().filter(|(_, l)| l.normal);
                let dense = tile_kernel::is_dense(kept().count(), row.len());
                let words: Vec<u32> = if dense {
                    lanes.iter().map(|l| if l.normal { l.word } else { 0 }).collect()
                } else {
                    kept().map(|(_, l)| l.word).collect()
                };
                let fields: Vec<u32> = kept().map(|(_, l)| (l.word >> 23) & 0xFF).collect();
                let expect: RowContents = (
                    dense,
                    words,
                    kept().map(|(j, _)| j as u32).collect(),
                    // Exotic columns fill the back from its end, in lane
                    // order, each with its format-rounded value.
                    lanes
                        .iter()
                        .enumerate()
                        .rev()
                        .filter(|(_, l)| l.exotic)
                        .map(|(j, _)| (j, FpScalar::from_f32(row[j], format).to_f32().to_bits()))
                        .collect(),
                    fields.iter().copied().min().unwrap_or(0xFF),
                    fields.iter().copied().max().unwrap_or(0),
                );
                for simd in [false, true] {
                    let mut slab = vec![0; decoded_stride(row.len())];
                    dec.decode_row(&row, &mut slab, simd);
                    let got = row_contents(&DecodedRow::new(&slab, row.len(), 0));
                    assert_eq!(got, expect, "{format} simd={simd}");
                }
            }
        }
    }

    /// A tile-decoding backend as the kernel tests drive it.
    trait TileBackend: ScalarMul {
        /// [`ScalarMul::mul_tile_rows`] on the MAC kernels `simd` asks
        /// for.
        fn mac(&self, a_run: &[f32], tile: &PreparedTile, c: &mut [f32], simd: bool);
    }

    impl TileBackend for ApproxFpMul {
        fn mac(&self, a_run: &[f32], tile: &PreparedTile, c: &mut [f32], simd: bool) {
            self.mul_tile_rows_with(a_run, tile, c, simd);
        }
    }

    impl TileBackend for QuantizedExactMul {
        /// One MAC kernel: `simd` picks only the decode.
        fn mac(&self, a_run: &[f32], tile: &PreparedTile, c: &mut [f32], _simd: bool) {
            self.mul_tile_rows(a_run, tile, c);
        }
    }

    /// Decode and MAC on each kernel — portable, and AVX-512 when the
    /// host has it — against per-driver `mul_rows`, bit for bit, for
    /// every run of [`runs`] and both accumulator signs. `bs` is laid out
    /// as `rows` tile rows; the two decodes must also fill every slab
    /// alike.
    fn assert_kernels_match_mul_rows(m: &dyn TileBackend, bs: &[f32], rows: usize, as_: &[f32]) {
        let n = bs.len() / rows;
        let format = decoded_format(m).expect("f32-encodable format");
        let tiles = [false, true].map(|simd| PreparedTile::decode(&source(bs, rows), format, simd));
        assert_eq!(decoded_contents(&tiles[0]), decoded_contents(&tiles[1]), "{}", m.name());
        for tile in &tiles {
            assert_eq!(tile.slabs.len(), rows * decoded_stride(n), "{}: row-slab stride", m.name());
            for r in 0..rows {
                let row = &bs[r * n..(r + 1) * n];
                let normal = |b: &&f32| FpScalar::from_f32(**b, format).class() == FpClass::Normal;
                let kept = row.iter().filter(normal).count();
                assert_eq!(tile.row(r).dense, tile_kernel::is_dense(kept, n), "{}", m.name());
            }
            for a_run in runs(rows, as_) {
                for init in [0.0f32, -0.0] {
                    let mut plain = vec![init; n];
                    mul_source_rows(m, &a_run, bs, rows, &mut plain);
                    for simd in [false, true] {
                        let mut tiled = vec![init; n];
                        m.mac(&a_run, tile, &mut tiled, simd);
                        for (j, (&p, &q)) in plain.iter().zip(&tiled).enumerate() {
                            assert!(
                                same_bits(p, q),
                                "{}: simd={simd}, run {a_run:?}, column {j}, c0={init}: \
                                 mul_rows {p} vs {q}",
                                m.name()
                            );
                        }
                    }
                }
            }
        }
    }

    const KERNEL_FORMATS: [FpFormat; 4] =
        [FpFormat::BF16, FpFormat::FP16, FpFormat::TF32, FpFormat::FP32];

    #[test]
    fn tile_kernels_match_mul_rows() {
        let mut state = 0x5EED_0014u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Zero-heavy rows with every exotic kind: Inf, NaN, an f32
        // subnormal, and values that flush or saturate in fp16. The
        // normals span 2^-6..2^6, and the A values 3000 and 1e-3 push
        // fp16 products past both ends of its exponent range, so the
        // select encode runs on the chunk MAC as well as the two-add one.
        //
        // Rows of 20ths zero: 7 of 20 keeps about 60% of the lanes (a
        // dense row, like a conv forward's B), 18 of 20 about 8% (a
        // compressed row, like an output gradient's).
        let exotic = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40, -1e-7, 1e6];
        let mut row = |w: usize, zeros: u64| -> Vec<f32> {
            (0..w)
                .map(|_| {
                    let r = next();
                    match r % 20 {
                        z if z < zeros => [0.0, -0.0][(r >> 8) as usize % 2],
                        z if z == zeros => exotic[(r >> 8) as usize % exotic.len()],
                        _ => {
                            let mag = 1.0 + (r >> 40) as f32 / (1u64 << 24) as f32;
                            let v = mag * 2f32.powi((r >> 16) as i32 % 7);
                            [v, -v, 1.0 / v, -1.0 / v][(r >> 8) as usize % 4]
                        }
                    }
                })
                .collect()
        };
        let mut rows = Vec::new();
        for zeros in [7, 18] {
            rows.extend([0, 1, 15, 16, 17, 1024].into_iter().map(|w| row(w, zeros)));
        }
        rows.push((0..40).map(|j| if j % 2 == 0 { 0.0 } else { -0.0 }).collect());
        // A dense row (5 of 16 lanes kept) whose other lanes are zeros,
        // Inf, NaN and an f32 subnormal that flushes: against a `-0.0`
        // accumulator a masked-off lane must keep its sign, and a flushed
        // lane's signed-zero product must still reach C.
        let mut dense_gated = vec![0.0, -0.0, f32::INFINITY, f32::NAN, 1e-40, -1e-40];
        dense_gated.extend([0.0, 1.5, -0.0, -2.25, 0.0, 3.0, f32::NEG_INFINITY, 0.75, -0.0, 1.0]);
        rows.push(dense_gated);
        let as_ = [1.5f32, -0.37, 113.7, 3000.0, -1e-3, 0.0, f32::NAN];
        // Every approximate backend, and the exact one on the tiles it
        // shares with them.
        let mut backends: Vec<Box<dyn TileBackend>> = vec![
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(QuantizedExactMul::new(FpFormat::FP32)),
        ];
        for format in KERNEL_FORMATS {
            for config in MultiplierConfig::ALL {
                backends.push(Box::new(ApproxFpMul::new(config, format)));
            }
        }
        for m in &backends {
            let (mut dense, mut compressed) = (0, 0);
            for bs in &rows {
                assert_kernels_match_mul_rows(m.as_ref(), bs, 1, &as_);
                match tile_of(m.as_ref(), bs, 1).expect("f32-encodable format").row(0).dense {
                    true => dense += 1,
                    false => compressed += 1,
                }
            }
            // Two rows of 17 (one 16-lane block and a tail each), of each
            // density.
            assert_kernels_match_mul_rows(m.as_ref(), &rows[5][..34], 2, &as_);
            assert_kernels_match_mul_rows(m.as_ref(), &rows[11][..34], 2, &as_);
            assert!(
                dense > 0 && compressed > 0,
                "{}: rows of both layouts: {dense} dense, {compressed}",
                m.name()
            );
        }
    }

    #[test]
    fn run_form_matches_per_driver_mul_rows_at_narrow_widths() {
        // Every width up to one lane past 16 and past the narrow register
        // MAC's bound, as eight-row tiles: a
        // dense row, a dense row with signed zeros, a compressed one, one
        // with an exotic lane, rows two octave-ranges high and low (whose
        // products saturate or flush for the large and small drivers, so
        // they take the select encode, or turn exotic in fp16), an
        // all-zero row and one of signed zeros between normals. The
        // drivers include zeros, ±Inf, NaN, an f32 subnormal and a value
        // that flushes in fp16; runs mix them across rows.
        let exotic = [f32::INFINITY, f32::NAN, 1e-40, -1e-40, 1e6, -1e-7];
        let as_ = [
            1.5f32,
            -0.37,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
            1e-6,
            2f32.powi(40),
            -(2f32.powi(-40)),
            113.7,
        ];
        let mut backends: Vec<Box<dyn TileBackend>> = vec![
            Box::new(QuantizedExactMul::new(FpFormat::BF16)),
            Box::new(QuantizedExactMul::new(FpFormat::FP32)),
        ];
        for format in KERNEL_FORMATS {
            for config in MultiplierConfig::ALL {
                backends.push(Box::new(ApproxFpMul::new(config, format)));
            }
        }
        for w in 1..=17.max(tile_kernel::NARROW_LANES + 1) {
            let normal = |j: usize| {
                let v = (1.0 + (j * 37 % 64) as f32 / 64.0) * 2f32.powi((j % 13) as i32 - 6);
                if j.is_multiple_of(2) {
                    v
                } else {
                    -v
                }
            };
            let mut bs = Vec::with_capacity(8 * w);
            bs.extend((0..w).map(normal));
            bs.extend((0..w).map(|j| if j % 3 == 0 { [0.0, -0.0][j % 2] } else { normal(j) }));
            bs.extend((0..w).map(|j| if j + 1 == w { normal(j) } else { 0.0 }));
            bs.extend(
                (0..w).map(|j| if j == w / 2 { exotic[w % exotic.len()] } else { normal(j) }),
            );
            bs.extend((0..w).map(|j| normal(j) * 2f32.powi(100)));
            bs.extend((0..w).map(|j| normal(j) * 2f32.powi(-100)));
            bs.extend((0..w).map(|j| [0.0, -0.0][j % 2]));
            bs.extend((0..w).map(|j| if j % 2 == 0 { -0.0 } else { normal(j) }));
            for m in &backends {
                assert_kernels_match_mul_rows(m.as_ref(), &bs, 8, &as_);
            }
        }
    }

    #[test]
    fn decode_picks_the_layout_from_the_kept_count() {
        // Every kept count of a few widths, on both decode kernels: a row
        // is dense from a quarter of its lanes kept. 9 lanes is a conv1
        // `grad_w` row (dense from 3 kept), 16 one vector group (from 4).
        let m = pc3tr_bf16();
        let dec = LaneDecoder::new(m.format);
        for w in [1usize, 3, 4, 9, 16, 17, 64, 100] {
            for kept in 0..=w {
                // Kept lanes spread over the row, with an exotic lane
                // (never kept) in the first gap.
                let mut row = vec![0.0f32; w];
                for i in 0..kept {
                    row[i * w / kept.max(1)] = 1.0 + i as f32;
                }
                if let Some(gap) = row.iter().position(|&b| b == 0.0) {
                    row[gap] = f32::INFINITY;
                }
                let want_dense = 4 * kept >= w;
                assert_eq!(tile_kernel::is_dense(kept, w), want_dense, "w={w} kept={kept}");
                for simd in [false, true] {
                    let mut slab = vec![0; decoded_stride(w)];
                    dec.decode_row(&row, &mut slab, simd);
                    let got = DecodedRow::new(&slab, w, 0);
                    let what = format!("w={w} kept={kept} simd={simd}");
                    assert_eq!(got.dense, want_dense, "{what}");
                    assert_eq!(got.cols.len(), kept, "{what}");
                    assert_eq!(got.words.len(), if want_dense { w } else { kept }, "{what}");
                    assert_eq!(got.words.iter().filter(|&&w| w != 0).count(), kept, "{what}");
                    assert_eq!(got.exotic.len(), usize::from(kept < w), "{what}");
                }
            }
        }
        for (w, first_dense) in [(9, 3), (16, 4), (17, 5), (1024, 256)] {
            assert!(!tile_kernel::is_dense(first_dense - 1, w), "w={w}");
            assert!(tile_kernel::is_dense(first_dense, w), "w={w}");
        }
    }

    #[test]
    fn two_add_range_boundaries_match_mul_rows() {
        // A row whose kept exponents span exactly [-3, 4], with mantissas
        // from 1.0 to the format's largest, mixed signs and zeros. A
        // multiplicand exponent puts the greatest product exponent
        // (`exp_x + emax + 1`) at `max_exp` and one past it, and the least
        // (`exp_x + emin`) at `min_exp` and one below it: both encodes run
        // at both edges, on the product-table MAC (bf16) and the
        // chunk-table MAC (the wider formats).
        for format in KERNEL_FORMATS {
            let top = 2.0 - 2f32.powi(1 - format.mantissa_width() as i32);
            let mut row = Vec::new();
            for e in -3..=4 {
                for man in [1.0f32, 1.5, top] {
                    let v = man * 2f32.powi(e);
                    row.extend([v, 0.0, -v]);
                }
            }
            let (min_exp, max_exp) = (format.min_exp(), format.max_exp());
            let cases = [
                (max_exp - 5, true),
                (max_exp - 4, false),
                (min_exp + 3, true),
                (min_exp + 2, false),
            ];
            for config in MultiplierConfig::ALL {
                let m = ApproxFpMul::new(config, format);
                let tile = tile_of(&m, &row, 1).expect("fast format");
                let decoded = tile.row(0);
                assert_eq!((decoded.emin, decoded.emax), (127 - 3, 127 + 4), "{}", m.name());
                for (xexp, in_range) in cases {
                    let run = RunConsts { simd: false, range: (min_exp, max_exp) };
                    assert_eq!(run.in_range(xexp, &decoded), in_range, "{}: {xexp}", m.name());
                    let as_ = [1.0f32, 1.5, top, -top].map(|v| v * 2f32.powi(xexp));
                    assert_kernels_match_mul_rows(&m, &row, 1, &as_);
                }
            }
        }
    }

    #[test]
    fn chunk_kernel_takes_every_width_with_a_32_bit_read_out() {
        // The chunk-table MAC (whose bits the tile tests above pin to
        // `mul_rows`) runs for every chunk-table width whose read-out
        // fits in 32 bits, and only when asked for on an AVX-512F host;
        // fp32 without truncation (48-bit read-outs) keeps the portable
        // lane MAC.
        let row: Vec<f32> = (0..40).map(|j| 1.0 + j as f32 / 64.0).collect();
        for format in [FpFormat::FP16, FpFormat::TF32, FpFormat::FP32] {
            for config in MultiplierConfig::ALL {
                let m = ApproxFpMul::new(config, format);
                let plan = m.mantissa_multiplier().chunk_plan().expect("a chunk-table width");
                let covered = format != FpFormat::FP32 || config.truncate;
                assert_eq!(plan.fits_u32(), covered, "{}", m.name());
                let tile = tile_of(&m, &row, 1).expect("fast format");
                let decoded = tile.row(0);
                let lead = 1u64 << (format.mantissa_width() - 1);
                let range = (format.min_exp(), format.max_exp());
                let avx512 = tile_kernel::tile_kernel() == "avx512";
                for (simd, runs) in [(false, false), (true, covered && avx512)] {
                    let mut c = vec![0.0f32; tile.width];
                    // A multiplicand of 1.0: `aword` 0.
                    let encode = Encode::TwoAdd(0);
                    let ran =
                        tile_kernel::mac_chunks(plan, lead, encode, range, &decoded, &mut c, simd);
                    assert_eq!(ran, runs, "{}: simd={simd}", m.name());
                    let mut expect = vec![0.0f32; tile.width];
                    if ran {
                        m.mul_rows(1.0, &row, &mut expect);
                    }
                    assert_eq!(c, expect, "{}: simd={simd}", m.name());
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

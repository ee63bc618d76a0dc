use crate::config::{MultiplierConfig, OperandMode};
use crate::mantissa::{MantissaMultiplier, PreparedMultiplicand};
use daism_num::{bits, encode_normal_f32, FpClass, FpFormat, FpScalar};
use std::fmt;

/// Elements per lane group in the lane-packed approximate multiply
/// kernel (one pre-normalised read-out gather per group).
const LANES: usize = 8;

/// A B row-panel pre-decoded for repeated [`ScalarMul::mul_prepared`]
/// calls — the operand-conversion work the GEMM engine hoists out of the
/// MAC loop entirely (one decode per panel *element*, reused by every C
/// row that consumes the panel).
///
/// Produced by [`ScalarMul::prepare_panel`]; the cached representation
/// is backend-specific (nothing for native `f32`, quantized operands for
/// [`QuantizedExactMul`], decoded sign/exponent/mantissa fields for
/// [`ApproxFpMul`]), but every panel also keeps the raw `f32` values so
/// any backend can fall back to its [`mul_rows`](ScalarMul::mul_rows)
/// semantics — feeding a panel to a *different* backend is therefore
/// still correct, just unaccelerated.
#[derive(Debug, Clone)]
pub struct PreparedPanel {
    raw: Vec<f32>,
    data: PanelData,
}

#[derive(Debug, Clone)]
enum PanelData {
    /// No per-element cache; `mul_prepared` falls back to `mul_rows` on
    /// the raw values (the trait default, and native-`f32` backends).
    Raw,
    /// [`QuantizedExactMul`]: operands quantized into `format` once,
    /// held as the exact `f64` the per-element multiply consumes.
    Quantized { format: FpFormat, vals: Vec<f64> },
    /// [`ApproxFpMul`]: operands decoded into `format` once — straight
    /// from the `f32` bits, in one pass (round-to-nearest-even, carry,
    /// range checks; exactly [`FpScalar::from_f32`]) — and held as
    /// **structure-of-arrays mantissa lanes** so the multiply kernel
    /// runs branch-free over [`LANES`]-wide groups: the mantissas that
    /// index the pre-normalised product row (or the chunk tables), the
    /// exponents/signs the combiner folds, a per-element accumulate
    /// mask (zero bypass as a bit select, not a branch) and a per-group
    /// escape flag for the rare elements that need the exact side logic.
    Decoded {
        format: FpFormat,
        /// Mantissas with explicit leading one (`0` for non-normals).
        mans: Vec<u32>,
        /// Unbiased exponents (`0` for non-normals).
        exps: Vec<i32>,
        /// Sign bits, pre-shifted to the `f32` sign position.
        signs: Vec<u32>,
        /// Accumulate mask: `!0` for `Normal`, `0` for zero bypass —
        /// the lane kernel keeps the C bits through a select instead of
        /// branching per element.
        sel: Vec<u32>,
        /// Per-[`LANES`]-group flag: the group holds an element that
        /// needs the exact side logic — Inf/NaN, or a nonzero `f32`
        /// that flushes to format zero, whose signed-zero product the
        /// scalar path *accumulates* rather than skips — and must take
        /// the scalar fallback (covers full groups only; the tail group
        /// is always scalar).
        exotic: Vec<bool>,
    },
}

impl PreparedPanel {
    /// Number of elements in the panel.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// `true` if the panel is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The raw (undecoded) panel values.
    pub fn raw(&self) -> &[f32] {
        &self.raw
    }
}

/// [`FpScalar::from_f32`] into a `fast_f32` format, computed straight
/// from the `f32` bits for the panel decode: round-to-nearest-even as
/// one add and shift, the rounding carry as a shift, then the range
/// checks. The per-format constants are derived once per panel.
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

/// One panel element as [`PanelData::Decoded`] stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DecodedLane {
    /// Mantissa with explicit leading one (`0` for non-normals).
    man: u32,
    /// Unbiased exponent (`0` for non-normals).
    exp: i32,
    /// Sign at the `f32` sign position (`0` for non-normals).
    sign: u32,
    /// `!0` for `Normal`, `0` otherwise.
    sel: u32,
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
        let sel = if normal { u32::MAX } else { 0 };
        DecodedLane {
            man: (rounded >> carry) & sel,
            exp: if normal { exp } else { 0 },
            sign: bits & 0x8000_0000 & sel,
            sel,
            exotic: !normal && bits & 0x7FFF_FFFF != 0,
        }
    }
}

/// A scalar multiplication backend: the seam through which the DNN crates
/// and the architecture model plug in exact or approximate arithmetic.
///
/// Implementors must be deterministic and side-effect free; `mul` is
/// called billions of times by the accuracy experiments.
pub trait ScalarMul: fmt::Debug + Send + Sync {
    /// Multiplies two values, returning the result widened to `f32`.
    fn mul(&self, x: f32, y: f32) -> f32;

    /// Human-readable backend name for reports (e.g. `"bfloat16/PC3_tr"`).
    fn name(&self) -> String;

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

    /// Decodes a B row-panel once, ahead of many
    /// [`mul_prepared`](Self::mul_prepared) calls against it.
    ///
    /// This is the second amortisation rung above
    /// [`mul_rows`](Self::mul_rows): `mul_rows` hoists the *A*-operand
    /// work out of the panel loop, `prepare_panel` hoists the *B*-operand
    /// decode out of the row loop entirely — the tiled GEMM engine
    /// prepares each packed `KC×NC` B-panel once and reuses it for every
    /// C row of the tile, so the per-MAC `FpScalar::from_f32` disappears.
    ///
    /// The default keeps only the raw values (correct for every backend);
    /// approximate backends override it to cache decoded
    /// sign/exponent/mantissa fields.
    fn prepare_panel(&self, b: &[f32]) -> PreparedPanel {
        PreparedPanel { raw: b.to_vec(), data: PanelData::Raw }
    }

    /// `true` if [`prepare_panel`](Self::prepare_panel) caches a decoded
    /// representation that [`mul_prepared`](Self::mul_prepared) consumes
    /// faster than re-deriving it per call. Backends keeping the raw-only
    /// default return `false`, so the GEMM engine can skip the panel
    /// allocation + B copy that would buy them nothing.
    fn supports_prepared_panels(&self) -> bool {
        false
    }

    /// [`mul_rows`](Self::mul_rows) against a panel prepared by
    /// [`prepare_panel`](Self::prepare_panel): `c[j] += mul(a, b[j])` for
    /// every `j` with `b[j] != 0.0`, with the same zero-bypass contract —
    /// and the same **bit-identity requirement**: for any panel, the
    /// result must equal `mul_rows(a, panel.raw(), c)` exactly (the
    /// equivalence tests and the differential GEMM suite enforce this).
    ///
    /// A panel prepared by a *different* backend (or the trait default)
    /// falls back to the raw values, so it is still correct — just not
    /// accelerated.
    ///
    /// # Panics
    ///
    /// May panic if `panel.len() != c.len()`.
    fn mul_prepared(&self, a: f32, panel: &PreparedPanel, c: &mut [f32]) {
        self.mul_rows(a, panel.raw(), c);
    }
}

/// Exact native `f32` multiplication — the paper's float32 baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMul;

impl ScalarMul for ExactMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        x * y
    }

    fn name(&self) -> String {
        "float32/exact".into()
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

impl ScalarMul for QuantizedExactMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        let xq = FpScalar::from_f32(x, self.format).to_f64();
        let yq = FpScalar::from_f32(y, self.format).to_f64();
        FpScalar::from_f32((xq * yq) as f32, self.format).to_f32()
    }

    fn name(&self) -> String {
        format!("{}/exact", self.format)
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

    fn prepare_panel(&self, b: &[f32]) -> PreparedPanel {
        let vals = b.iter().map(|&bv| FpScalar::from_f32(bv, self.format).to_f64()).collect();
        PreparedPanel { raw: b.to_vec(), data: PanelData::Quantized { format: self.format, vals } }
    }

    fn supports_prepared_panels(&self) -> bool {
        true
    }

    fn mul_prepared(&self, a: f32, panel: &PreparedPanel, c: &mut [f32]) {
        let PanelData::Quantized { format, vals } = &panel.data else {
            return self.mul_rows(a, panel.raw(), c);
        };
        if *format != self.format {
            return self.mul_rows(a, panel.raw(), c);
        }
        debug_assert_eq!(panel.len(), c.len(), "panel length mismatch");
        // The cached `yq` is exactly the value `mul_rows` re-derives per
        // element; only the result quantization (which depends on `a`)
        // remains in the loop.
        let xq = FpScalar::from_f32(a, self.format).to_f64();
        for ((cv, bv), yq) in c.iter_mut().zip(panel.raw()).zip(vals) {
            if *bv != 0.0 {
                *cv += FpScalar::from_f32((xq * yq) as f32, self.format).to_f32();
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
    /// takes the already-XORed sign and already-summed exponent, so the
    /// prepared-panel path can feed cached fields without materialising
    /// `FpScalar`s. Only valid when `self.fast_f32` (checked by callers).
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

    /// Folds one group of pre-normalised read-outs (see
    /// [`prenormalise`](crate::mantissa::prenormalise)) into the C
    /// lanes: exponent add (the renormalise increment rides in bit 23),
    /// branch-free encode (saturation/flush as exponent-range selects),
    /// one OR with sign and fraction, and the zero bypass as a bit
    /// select on the accumulator — never `c + 0.0`, which would flip a
    /// negative-zero accumulator. All lanes are
    /// fixed-width arrays, so the whole fold autovectorizes on stable.
    /// Bit-identical to [`fuse_combine`](Self::fuse_combine) on every
    /// selected lane. Only valid when `self.fast_f32` and for read-outs
    /// of `Normal` operands and exact-zero `f32`s (callers route Inf/NaN
    /// and flushed-nonzero groups to the scalar fallback).
    #[inline]
    fn combine_lanes(
        &self,
        norm: &[u32; LANES],
        exps: &[i32; LANES],
        signs: &[u32; LANES],
        sel: &[u32; LANES],
        xs: &FpScalar,
        c: &mut [f32; LANES],
    ) {
        let (max_exp, min_exp) = (self.format.max_exp(), self.format.min_exp());
        let xsign = (xs.sign() as u32) << 31;
        let xexp = xs.exponent();
        for j in 0..LANES {
            let e = norm[j];
            let exp = xexp + exps[j] + (e >> 23) as i32;
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
            let cv = c[j];
            let sum = cv + f32::from_bits(pbits);
            c[j] = f32::from_bits((sum.to_bits() & sel[j]) | (cv.to_bits() & !sel[j]));
        }
    }

    /// The scalar per-element multiply-accumulate over a slice of raw B
    /// values with the multiplicand already decoded and prepared — the
    /// fallback the lane kernel escapes to for Inf/NaN groups and tail
    /// elements, and the body of the batched `mul_rows` fast path. Only
    /// valid when `self.fast_f32` and `xs` is `Normal` (checked by
    /// callers).
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

impl ScalarMul for ApproxFpMul {
    fn mul(&self, x: f32, y: f32) -> f32 {
        let xs = FpScalar::from_f32(x, self.format);
        let ys = FpScalar::from_f32(y, self.format);
        self.mul_scalars(&xs, &ys).to_f32()
    }

    fn name(&self) -> String {
        format!("{}/{}", self.format, self.mult.config())
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

    fn prepare_panel(&self, b: &[f32]) -> PreparedPanel {
        if !self.fast_f32 {
            // Exotic formats stay on the FpScalar path; nothing cheap to
            // cache, so keep the raw fallback.
            return PreparedPanel { raw: b.to_vec(), data: PanelData::Raw };
        }
        let dec = LaneDecoder::new(self.format);
        let len = b.len();
        let mut mans = Vec::with_capacity(len);
        let mut exps = Vec::with_capacity(len);
        let mut signs = Vec::with_capacity(len);
        let mut sel = Vec::with_capacity(len);
        let mut exotic = vec![false; len / LANES];
        for (i, &bv) in b.iter().enumerate() {
            let lane = dec.decode(bv.to_bits());
            mans.push(lane.man);
            exps.push(lane.exp);
            signs.push(lane.sign);
            // Zero bypass: a zero mantissa reads a discarded product,
            // and the zeroed select keeps C untouched — exactly the
            // scalar path's `bv == 0.0` skip.
            sel.push(lane.sel);
            // Inf/NaN, or a nonzero f32 that *flushes* to format zero
            // (subnormal, or below the format's min exponent): the
            // scalar path does NOT skip the latter — it accumulates the
            // signed-zero product, which can flip a -0.0 accumulator to
            // +0.0. The whole group escapes to the scalar fallback, so
            // the lane path stays bit-identical.
            if lane.exotic {
                if let Some(flag) = exotic.get_mut(i / LANES) {
                    *flag = true;
                }
            }
        }
        PreparedPanel {
            raw: b.to_vec(),
            data: PanelData::Decoded { format: self.format, mans, exps, signs, sel, exotic },
        }
    }

    fn supports_prepared_panels(&self) -> bool {
        // Exotic formats keep the raw fallback in `prepare_panel`, so
        // there is nothing for the engine to amortise.
        self.fast_f32
    }

    fn mul_prepared(&self, a: f32, panel: &PreparedPanel, c: &mut [f32]) {
        let PanelData::Decoded { format, mans, exps, signs, sel, exotic } = &panel.data else {
            return self.mul_rows(a, panel.raw(), c);
        };
        if *format != self.format || !self.fast_f32 {
            return self.mul_rows(a, panel.raw(), c);
        }
        debug_assert_eq!(panel.len(), c.len(), "panel length mismatch");
        let xs = FpScalar::from_f32(a, self.format);
        if xs.class() != FpClass::Normal {
            // Zero / NaN / Inf multiplicand: rare, exact side logic.
            for (cv, bv) in c.iter_mut().zip(panel.raw()) {
                if *bv != 0.0 {
                    *cv += self.mul_scalars(&xs, &FpScalar::from_f32(*bv, self.format)).to_f32();
                }
            }
            return;
        }
        // Per-call work: one decode of `a` and binding its table row
        // (or building its chunk tables). Per-MAC work: one gather from
        // the pre-normalised product row (or one lookup per chunk plus
        // the same renormalise) and the combine — exponent add, range
        // selects, one OR — with the zero bypass as a select, so the
        // whole group vectorizes. Every step computes exactly the value
        // the scalar path computes, so results stay bit-identical (the
        // prepared-vs-mul_rows equivalence tests and the differential
        // GEMM suite enforce this).
        let prep = self.mult.prepare(xs.mantissa());
        let groups = c.len() / LANES;
        let (head, tail) = c.split_at_mut(groups * LANES);
        for (g, cch) in head.chunks_exact_mut(LANES).enumerate() {
            let base = g * LANES;
            if exotic[g] {
                // Inf/NaN or flushed-nonzero in the group: exact side
                // logic, per element.
                self.mul_prepared_scalar_chunk(&xs, &prep, &panel.raw()[base..base + LANES], cch);
                continue;
            }
            // Fixed-width array views: index-free lanes the compiler
            // can keep in vector registers.
            let cch: &mut [f32; LANES] = cch.try_into().expect("lane group");
            let mch: &[u32; LANES] = mans[base..base + LANES].try_into().expect("lane group");
            let norm = self.mult.norm_lanes_trusted(&prep, mch);
            let ech: &[i32; LANES] = exps[base..base + LANES].try_into().expect("lane group");
            let sch: &[u32; LANES] = signs[base..base + LANES].try_into().expect("lane group");
            let zch: &[u32; LANES] = sel[base..base + LANES].try_into().expect("lane group");
            self.combine_lanes(&norm, ech, sch, zch, &xs, cch);
        }
        self.mul_prepared_scalar_chunk(&xs, &prep, &panel.raw()[groups * LANES..], tail);
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

    /// `prepare_panel` + `mul_prepared` must be element-wise bit-identical
    /// to `mul_rows` on the same panel — the contract the prepared-panel
    /// GEMM engine is built on. Exercised over the full edge-value grid
    /// (zeros, subnormals, infinities, NaN), a dense magnitude sweep,
    /// and **both** `+0.0`- and `-0.0`-initialised accumulators — a
    /// negative-zero accumulator is flipped to `+0.0` by the signed-zero
    /// product of a *flushed* (nonzero-f32, format-zero) element, which
    /// the lane path must reproduce, not skip.
    fn assert_prepared_matches_mul_rows(m: &dyn ScalarMul, bs: &[f32], as_: &[f32]) {
        let panel = m.prepare_panel(bs);
        assert_eq!(panel.len(), bs.len());
        assert_eq!(panel.is_empty(), bs.is_empty());
        for (p, b) in panel.raw().iter().zip(bs) {
            assert_eq!(p.to_bits(), b.to_bits(), "{}: raw values must round-trip", m.name());
        }
        for &a in as_ {
            for init in [0.0f32, -0.0] {
                let mut plain = vec![init; bs.len()];
                let mut prepared = vec![init; bs.len()];
                m.mul_rows(a, bs, &mut plain);
                m.mul_prepared(a, &panel, &mut prepared);
                for (j, (p, q)) in plain.iter().zip(&prepared).enumerate() {
                    assert!(
                        p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                        "{}: a={a}, b={}, c0={init}: mul_rows {p} vs mul_prepared {q}",
                        m.name(),
                        bs[j]
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_panel_matches_mul_rows_for_every_backend() {
        let edges = edge_values();
        let mut dense = Vec::new();
        let mut v = 1.07e-30f32;
        while v < 1e30 {
            dense.push(v);
            dense.push(-v);
            v *= 3.9;
        }
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
            assert_prepared_matches_mul_rows(m.as_ref(), &edges, &edges);
            assert_prepared_matches_mul_rows(m.as_ref(), &dense, &[0.37, -11.0, 1.0, 255.4]);
            assert_prepared_matches_mul_rows(m.as_ref(), &[], &[1.5]);
        }
    }

    #[test]
    fn foreign_panels_fall_back_correctly() {
        // A panel prepared by one backend fed to another must still match
        // the consumer's own `mul_rows` semantics (unaccelerated path).
        let bs = edge_values();
        let preparers: Vec<Box<dyn ScalarMul>> = vec![
            Box::new(ExactMul),
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
            let panel = preparer.prepare_panel(&bs);
            for consumer in &consumers {
                for &a in &[1.5f32, -0.37, 0.0] {
                    let mut plain = vec![0.0f32; bs.len()];
                    let mut prepared = vec![0.0f32; bs.len()];
                    consumer.mul_rows(a, &bs, &mut plain);
                    consumer.mul_prepared(a, &panel, &mut prepared);
                    for (p, q) in plain.iter().zip(&prepared) {
                        assert!(
                            p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                            "panel from {} into {}: a={a}: {p} vs {q}",
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
        impl ScalarMul for DefaultOnly<'_> {
            fn mul(&self, x: f32, y: f32) -> f32 {
                self.0.mul(x, y)
            }
            fn name(&self) -> String {
                format!("default({})", self.0.name())
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
                    let expect = match ys.class() {
                        FpClass::Normal => DecodedLane {
                            man: ys.mantissa() as u32,
                            exp: ys.exponent(),
                            sign: (ys.sign() as u32) << 31,
                            sel: u32::MAX,
                            exotic: false,
                        },
                        FpClass::Zero => {
                            DecodedLane { man: 0, exp: 0, sign: 0, sel: 0, exotic: x != 0.0 }
                        }
                        FpClass::Inf | FpClass::Nan => {
                            DecodedLane { man: 0, exp: 0, sign: 0, sel: 0, exotic: true }
                        }
                    };
                    assert_eq!(dec.decode(bits), expect, "{format}: bits {bits:#010x}");
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

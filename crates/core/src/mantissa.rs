use crate::config::{MultiplierConfig, OperandMode};
use crate::lines::LineLayout;
use daism_num::bits;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Widest mantissa for which the full product table is materialised
/// (`2^(2n)` entries of `u16`; at 8 bits that is 128 KiB — `bfloat16`,
/// the paper's preferred format, is covered — plus, in fp mode, its
/// pre-normalised `u32` twin, 256 KiB at 8 bits).
const LUT_MAX_WIDTH: u32 = 8;

/// Process-wide memo of product tables, keyed by everything that
/// determines the wired-OR semantics. Constructing the same multiplier
/// twice (the benches and the DNN experiments do, per layer and per
/// figure) reuses one table instead of re-deriving the line patterns.
type LutKey = (MultiplierConfig, OperandMode, u32);

/// The memoized tables of one narrow configuration, both indexed by
/// `(a << n) | b`.
#[derive(Debug)]
struct ProductTables {
    /// The wired-OR read-out `multiply(a, b)`.
    raw: Vec<u16>,
    /// Fp mode only (empty in int mode): the read-out renormalised into
    /// `f32` position by [`prenormalise`].
    norm: Vec<u32>,
}

fn lut_cache() -> &'static Mutex<HashMap<LutKey, Arc<ProductTables>>> {
    static CACHE: OnceLock<Mutex<HashMap<LutKey, Arc<ProductTables>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn build_or_reuse_lut(layout: &LineLayout) -> Arc<ProductTables> {
    let key = (layout.config(), layout.mode(), layout.mantissa_width());
    let mut cache = lut_cache().lock().expect("LUT cache poisoned");
    if let Some(tables) = cache.get(&key) {
        return Arc::clone(tables);
    }
    let n = layout.mantissa_width();
    let size = 1usize << (2 * n);
    let mut raw = vec![0u16; size];
    for a in 0..(1u64 << n) {
        // In fp mode only multipliers with their leading one (or zero)
        // are decodable; other rows stay zero and are unreachable
        // through `multiply` (its operand checks reject them).
        for b in 0..(1u64 << n) {
            if layout.mode() == OperandMode::Fp && b != 0 && !bits::bit(b, n - 1) {
                continue;
            }
            raw[((a << n) | b) as usize] = or_read(layout, a, b) as u16;
        }
    }
    let norm = match layout.mode() {
        OperandMode::Fp => {
            let truncate = layout.config().truncate;
            raw.iter().map(|&r| prenormalise(r as u64, n, truncate)).collect()
        }
        OperandMode::Int => Vec::new(),
    };
    let tables = Arc::new(ProductTables { raw, norm });
    cache.insert(key, Arc::clone(&tables));
    tables
}

/// The wired-OR read computed directly from the line layout: decode the
/// multiplier into a wordline mask, OR the selected stored patterns.
fn or_read(layout: &LineLayout, a: u64, b: u64) -> u64 {
    let mask = layout.decode(b);
    let mut acc = 0u64;
    let mut m = mask;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        acc |= layout.stored_pattern(i, a);
        m &= m - 1;
    }
    acc
}

/// An fp-mode read-out `raw` of two `n`-bit mantissas, renormalised the
/// way the accumulator-side normaliser does it (`ApproxFpMul`'s
/// `fuse_combine`): bit 23 holds the one-position renormalise shift
/// (the exponent increment) and bits 0..23 the fraction below the
/// leading one, already shifted to its `f32` position. A `Normal`
/// product's `f32` bits are then `sign | (exp + 127) << 23 | frac`
/// with `exp` the exponent sum plus bit 23.
///
/// Only meaningful for read-outs of two leading-one mantissas (the
/// result always carries its leading one); other inputs yield bits the
/// lane kernel discards.
#[inline]
pub(crate) fn prenormalise(raw: u64, n: u32, truncate: bool) -> u32 {
    // `fuse_combine`'s branches: the top read-out column picks the
    // shift, then the leading one is dropped with the mask.
    let (t, man) = if truncate {
        let t = (raw >> (n - 1)) & 1;
        (t, if t != 0 { raw } else { raw << 1 })
    } else {
        let t = (raw >> (2 * n - 1)) & 1;
        (t, if t != 0 { raw >> n } else { raw >> (n - 1) })
    };
    ((t as u32) << 23) | (((man & bits::mask(n - 1)) as u32) << (24 - n))
}

/// Plain multiplier bits per chunk table below the head.
const CHUNK_BITS: u32 = 4;

/// Most plain chunk tables a width can need: `n ≤ 24` with a head of at
/// least one bit leaves 23 plain bits.
const MAX_CHUNKS: usize = 6;

/// How a table-less multiplier splits `b` into chunks, derived once
/// from the layout's decoder.
///
/// The head chunk is the top 1, 2 or 3 bits (FLA, PC2, PC3): each head
/// value activates at most one line, plain or combined (`A`, `AB`,
/// `ABC`, …). Below it, every bit drives at most one plain line of its
/// own shift (integer-mode PC2's bit 0 drives none), so the wired-OR of
/// a whole multiplier is the OR of one entry per chunk: OR distributes
/// over disjoint line sets.
#[derive(Debug, Clone)]
struct ChunkPlan {
    /// `b >> head_shift` is the head chunk (`n` minus the head width).
    head_shift: u32,
    /// Per head value, the line's multiplier `Σ 2^shift` (its stored
    /// pattern is `a · coeff`, before truncation); `0` for values that
    /// activate nothing.
    head_coeffs: [u64; 8],
    /// Bits below the head that drive a plain line (`a << s`).
    plain_lines: u64,
    /// Plain chunk tables in use (`⌈head_shift / CHUNK_BITS⌉`).
    chunks: usize,
    /// Columns each stored pattern drops (`n` when truncated, else 0).
    drop: u32,
}

impl ChunkPlan {
    fn new(layout: &LineLayout) -> Self {
        let n = layout.mantissa_width();
        // The bits that share combined lines; FLA has none, so its head
        // is just the leading bit.
        let head_bits = layout.config().kind.precomputed_depth().max(1);
        let head_shift = n - head_bits;
        let fp = layout.mode() == OperandMode::Fp;
        let single_line = |mask: u64| -> Option<usize> {
            assert!(mask.count_ones() <= 1, "a chunk must select at most one line");
            (mask != 0).then(|| mask.trailing_zeros() as usize)
        };
        let mut head_coeffs = [0u64; 8];
        for (v, coeff) in head_coeffs.iter_mut().enumerate().take(1 << head_bits) {
            // Fp-mode heads without the leading one are unreachable
            // (only `b == 0` has one, and it reads zero).
            if fp && v >> (head_bits - 1) == 0 {
                continue;
            }
            if let Some(i) = single_line(layout.decode((v as u64) << head_shift)) {
                *coeff = layout.specs()[i].full_pattern(1);
            }
        }
        // A plain bit's line is what it adds to the decode of the
        // smallest valid multiplier (the bare leading one in fp mode).
        let lead = if fp { 1u64 << (n - 1) } else { 0 };
        let base = layout.decode(lead);
        let mut plain_lines = 0u64;
        for s in 0..head_shift {
            if let Some(i) = single_line(layout.decode(lead | (1 << s)) & !base) {
                assert_eq!(layout.specs()[i].shifts(), [s], "bit {s} must drive its plain line");
                plain_lines |= 1 << s;
            }
        }
        ChunkPlan {
            head_shift,
            head_coeffs,
            plain_lines,
            chunks: head_shift.div_ceil(CHUNK_BITS) as usize,
            drop: if layout.config().truncate { n } else { 0 },
        }
    }

    /// The chunk tables of multiplicand `a`: the head entries, and each
    /// plain chunk by the subset-OR recurrence
    /// `T[v] = T[v & (v - 1)] | line(lowest set bit of v)`.
    fn tables(&self, a: u64) -> ChunkTables {
        let mut t = ChunkTables {
            head_shift: self.head_shift,
            chunks: self.chunks,
            head: [0; 8],
            plain: [[0; 16]; MAX_CHUNKS],
        };
        for (h, &coeff) in t.head.iter_mut().zip(&self.head_coeffs) {
            *h = (a * coeff) >> self.drop;
        }
        for (j, table) in t.plain[..self.chunks].iter_mut().enumerate() {
            // The chunk's four lines (zero for bits without one, which
            // includes head bits).
            let lines: [u64; CHUNK_BITS as usize] = std::array::from_fn(|i| {
                let s = j as u32 * CHUNK_BITS + i as u32;
                let drives = 0u64.wrapping_sub((self.plain_lines >> s) & 1);
                ((a << s) >> self.drop) & drives
            });
            for v in 1..16usize {
                table[v] = table[v & (v - 1)] | lines[v.trailing_zeros() as usize];
            }
        }
        t
    }
}

/// One multiplicand's chunk tables (see [`ChunkPlan`]): a wired-OR read
/// is one head lookup plus one lookup per plain chunk.
#[derive(Debug, Clone)]
struct ChunkTables {
    head_shift: u32,
    chunks: usize,
    head: [u64; 8],
    plain: [[u64; 16]; MAX_CHUNKS],
}

impl ChunkTables {
    #[inline]
    fn read(&self, b: u64) -> u64 {
        let [acc] = self.read_lanes(&[b]);
        acc
    }

    /// [`read`](Self::read) over a lane group, chunk-major so every
    /// pass is a fixed-width loop over the lanes.
    #[inline]
    fn read_lanes<const L: usize>(&self, b: &[u64; L]) -> [u64; L] {
        let mut acc = [0u64; L];
        for (o, &v) in acc.iter_mut().zip(b) {
            *o = self.head[(v >> self.head_shift) as usize & 7];
        }
        for (j, table) in self.plain[..self.chunks].iter().enumerate() {
            let shift = j as u32 * CHUNK_BITS;
            for (o, &v) in acc.iter_mut().zip(b) {
                *o |= table[(v >> shift) as usize & 15];
            }
        }
        acc
    }
}

/// Exact product of two mantissas (reference for error analysis).
///
/// # Examples
///
/// ```
/// assert_eq!(daism_core::exact_mul(0b1011, 0b0101), 0b1011 * 0b0101);
/// ```
#[inline]
pub fn exact_mul(a: u64, b: u64) -> u64 {
    debug_assert!(bits::width_of(a) <= 24 && bits::width_of(b) <= 24);
    a * b
}

/// Bit-exact software model of one DAISM mantissa multiplier.
///
/// `multiply` produces exactly the value the SRAM wired-OR would read:
/// the OR of the stored line patterns selected by the address decoder.
/// This is the fast path used by the DNN experiments; the
/// [`SramMultiplier`](crate::SramMultiplier) executes the same semantics
/// through the bit-level SRAM and is differentially tested against this.
///
/// # Examples
///
/// ```
/// use daism_core::{MantissaMultiplier, MultiplierConfig, OperandMode};
///
/// let m = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
/// // Multiplier with only bits A,B set is exact under PC2/PC3:
/// assert_eq!(m.multiply(0b1000_0001, 0b1100_0000), 0b1000_0001 * 0b1100_0000);
/// // Generic operands under-approximate:
/// let approx = m.multiply(0b1011_0101, 0b1101_1011);
/// assert!(approx <= 0b1011_0101u64 * 0b1101_1011);
/// ```
#[derive(Debug, Clone)]
pub struct MantissaMultiplier {
    layout: LineLayout,
    products: Products,
}

/// How [`MantissaMultiplier`] serves prepared products.
#[derive(Debug, Clone)]
enum Products {
    /// Narrow mantissas: the memoized full product tables, shared
    /// process-wide per configuration.
    Table(Arc<ProductTables>),
    /// Wider mantissas: per-multiplicand chunk tables built by
    /// [`MantissaMultiplier::prepare`] from this plan.
    Chunked(ChunkPlan),
}

impl PartialEq for MantissaMultiplier {
    fn eq(&self, other: &Self) -> bool {
        // The tables are a pure function of the layout; comparing them
        // would be redundant (and they intentionally share storage
        // across clones).
        self.layout == other.layout
    }
}

impl Eq for MantissaMultiplier {}

impl MantissaMultiplier {
    /// Creates the multiplier model for `config`/`mode` at mantissa width
    /// `n`.
    ///
    /// For `n ≤ 8` the full wired-OR product table is precomputed at
    /// construction (memoized process-wide per `config`/`mode`/`n`), so
    /// [`multiply`](Self::multiply) in the GEMM hot loop is one table
    /// read instead of an address decode plus a line-pattern OR chain.
    /// Wider mantissas derive their chunk split (see
    /// [`prepare`](Self::prepare)) from the decoder once, here.
    ///
    /// # Panics
    ///
    /// Panics for unsupported widths (see [`LineLayout::new`]).
    pub fn new(config: MultiplierConfig, mode: OperandMode, n: u32) -> Self {
        let layout = LineLayout::new(config, mode, n);
        let products = if n <= LUT_MAX_WIDTH {
            Products::Table(build_or_reuse_lut(&layout))
        } else {
            Products::Chunked(ChunkPlan::new(&layout))
        };
        MantissaMultiplier { layout, products }
    }

    /// The line layout backing this multiplier.
    #[inline]
    pub fn layout(&self) -> &LineLayout {
        &self.layout
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> MultiplierConfig {
        self.layout.config()
    }

    /// Mantissa width `n`.
    #[inline]
    pub fn mantissa_width(&self) -> u32 {
        self.layout.mantissa_width()
    }

    /// Result width: `2n` full, `n` truncated.
    #[inline]
    pub fn result_width(&self) -> u32 {
        self.layout.stored_width()
    }

    /// Panics unless `b` is a multiplier this multiplier can decode.
    #[inline]
    fn check_multiplier(&self, b: u64) {
        let n = self.layout.mantissa_width();
        assert!(bits::width_of(b) <= n, "multiplier {b:#x} wider than {n} bits");
        if self.layout.mode() == OperandMode::Fp {
            assert!(
                b == 0 || bits::bit(b, n - 1),
                "fp-mode multiplier {b:#x} lacks its leading one"
            );
        }
    }

    /// The approximate product: OR of the activated stored patterns.
    ///
    /// For truncated configurations the result approximates
    /// `(a·b) >> n`; otherwise it approximates `a·b`. Served from the
    /// memoized product table for narrow mantissas, bit-identical to
    /// [`multiply_bitwise`](Self::multiply_bitwise) in all cases.
    ///
    /// # Panics
    ///
    /// Panics if operands exceed `n` bits or (fp mode) `b != 0` lacks its
    /// leading one.
    #[inline]
    pub fn multiply(&self, a: u64, b: u64) -> u64 {
        if let Products::Table(tables) = &self.products {
            let n = self.layout.mantissa_width();
            assert!(bits::width_of(a) <= n, "multiplicand {a:#x} wider than {n} bits");
            self.check_multiplier(b);
            return tables.raw[((a << n) | b) as usize] as u64;
        }
        self.multiply_bitwise(a, b)
    }

    /// The wired-OR read computed directly from the line layout (decode,
    /// then OR the selected stored patterns), bypassing the memoized
    /// table. This is the semantic reference the table is built from;
    /// exposed so equivalence can be asserted in tests and audits.
    ///
    /// # Panics
    ///
    /// As [`multiply`](Self::multiply).
    pub fn multiply_bitwise(&self, a: u64, b: u64) -> u64 {
        or_read(&self.layout, a, b)
    }

    /// Pre-binds the multiplicand (stored-operand) side of the multiply,
    /// so a GEMM inner loop that reuses one `A` element against a whole
    /// row panel of `B` pays the line-pattern derivation once.
    ///
    /// Narrow mantissas bind the multiplicand's product-table row.
    /// Wider ones build small chunk tables, with no heap allocation: the
    /// multiplier splits into a head chunk (its top 1, 2 or 3 bits under
    /// FLA, PC2 or PC3 — the bits that select a combined line) and
    /// plain chunks of at most 4 bits below it, and each table entry is
    /// the OR of the stored patterns its chunk value activates. A read
    /// is then one lookup per chunk, ORed together.
    ///
    /// # Panics
    ///
    /// Panics if `a` exceeds `n` bits.
    pub fn prepare(&self, a: u64) -> PreparedMultiplicand {
        let n = self.layout.mantissa_width();
        assert!(bits::width_of(a) <= n, "multiplicand {a:#x} wider than {n} bits");
        let chunks = match &self.products {
            Products::Table(_) => None,
            Products::Chunked(plan) => Some(plan.tables(a)),
        };
        PreparedMultiplicand { a, chunks }
    }

    /// [`multiply`](Self::multiply) with a pre-bound multiplicand:
    /// bit-identical results, but the table row (or the chunk tables)
    /// are reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `b` exceeds `n` bits or (fp mode) `b != 0` lacks its
    /// leading one.
    #[inline]
    pub fn multiply_prepared(&self, prep: &PreparedMultiplicand, b: u64) -> u64 {
        self.check_multiplier(b);
        self.multiply_prepared_trusted(prep, b)
    }

    /// [`multiply_prepared`](Self::multiply_prepared) without operand
    /// re-validation, for crate-internal hot loops whose `b` is the
    /// mantissa of an already-decoded `Normal` scalar (in range and
    /// carrying its leading one by construction).
    #[inline]
    pub(crate) fn multiply_prepared_trusted(&self, prep: &PreparedMultiplicand, b: u64) -> u64 {
        debug_assert!(bits::width_of(b) <= self.layout.mantissa_width());
        debug_assert!(
            self.layout.mode() != OperandMode::Fp
                || b == 0
                || bits::bit(b, self.layout.mantissa_width() - 1)
        );
        match &self.products {
            Products::Table(tables) => {
                tables.raw[((prep.a << self.layout.mantissa_width()) | b) as usize] as u64
            }
            Products::Chunked(_) => prep.chunk_tables().read(b),
        }
    }

    /// Lane-batched [`multiply_prepared`](Self::multiply_prepared): one
    /// call multiplies the prepared multiplicand against `L` multiplier
    /// lanes at once, returning the per-lane wired-OR read-outs.
    ///
    /// This is the integer heart of the lane-packed GEMM microkernels:
    /// for narrow mantissas the memoized product table row bound to
    /// `prep` is gathered per lane (a 2ⁿ-entry, cache-resident slice);
    /// wider mantissas read the prepared chunk tables (one lookup per
    /// chunk). Operand validation is amortised over the whole lane group
    /// instead of paid per scalar.
    ///
    /// Bit-identical to `L` scalar [`multiply`](Self::multiply) calls for
    /// every configuration, mode and width (enforced by the lane
    /// differential suite in `tests/gemm_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any lane exceeds `n` bits or (fp mode) a non-zero lane
    /// lacks its leading one.
    #[inline]
    pub fn mul_lanes<const L: usize>(&self, prep: &PreparedMultiplicand, b: &[u64; L]) -> [u64; L] {
        let n = self.layout.mantissa_width();
        // Amortised validation: OR-fold the lanes so the width check is
        // one compare per group, and fp-mode leading ones are checked
        // with one boolean fold.
        let folded = b.iter().fold(0u64, |acc, &v| acc | v);
        assert!(bits::width_of(folded) <= n, "a multiplier lane is wider than {n} bits");
        if self.layout.mode() == OperandMode::Fp {
            assert!(
                b.iter().all(|&v| v == 0 || bits::bit(v, n - 1)),
                "an fp-mode multiplier lane lacks its leading one"
            );
        }
        self.mul_lanes_trusted(prep, b)
    }

    /// [`mul_lanes`](Self::mul_lanes) without per-group operand
    /// re-validation, for crate-internal hot loops whose lanes come from
    /// already-validated decodes (quantized BlockFp mantissas, decoded
    /// `Normal` scalars) — the lane counterpart of
    /// [`multiply_prepared_trusted`](Self::multiply_prepared_trusted).
    #[inline]
    pub(crate) fn mul_lanes_trusted<const L: usize>(
        &self,
        prep: &PreparedMultiplicand,
        b: &[u64; L],
    ) -> [u64; L] {
        debug_assert!(b.iter().all(|&v| bits::width_of(v) <= self.layout.mantissa_width()));
        match &self.products {
            Products::Table(tables) => {
                let row = self.row(&tables.raw, prep);
                // `row` is exactly 2^n entries, so masking the index both
                // elides the bounds check and cannot alias distinct
                // operands (every lane is already proven < 2^n above).
                let mask = row.len() - 1;
                // A plain write loop: `array::map` here measured markedly
                // slower in the BlockFp MAC loop.
                let mut out = [0u64; L];
                for (o, &v) in out.iter_mut().zip(b) {
                    *o = row[v as usize & mask] as u64;
                }
                out
            }
            Products::Chunked(_) => prep.chunk_tables().read_lanes(b),
        }
    }

    /// Lane-batched read-outs of an fp-mode multiplier, already
    /// renormalised into `f32` position by [`prenormalise`]: a gather
    /// from the memoized pre-normalised row for narrow mantissas, the
    /// chunk-table read plus the same renormalise otherwise. Lanes must
    /// carry their leading one (decoded tiles keep only normal lanes).
    #[inline]
    pub(crate) fn norm_lanes_trusted<const L: usize>(
        &self,
        prep: &PreparedMultiplicand,
        b: &[u32; L],
    ) -> [u32; L] {
        debug_assert_eq!(self.layout.mode(), OperandMode::Fp);
        let mut out = [0u32; L];
        match &self.products {
            Products::Table(tables) => {
                let row = self.row(&tables.norm, prep);
                let mask = row.len() - 1;
                for (o, &v) in out.iter_mut().zip(b) {
                    *o = row[v as usize & mask];
                }
            }
            Products::Chunked(_) => {
                let (n, truncate) = (self.layout.mantissa_width(), self.config().truncate);
                let mut wide = [0u64; L];
                for (w, &v) in wide.iter_mut().zip(b) {
                    *w = v as u64;
                }
                let raws = prep.chunk_tables().read_lanes(&wide);
                for (o, raw) in out.iter_mut().zip(raws) {
                    *o = prenormalise(raw, n, truncate);
                }
            }
        }
        out
    }

    /// The 2ⁿ-entry row of a memoized table bound to `prep`.
    #[inline]
    fn row<'t, T>(&self, table: &'t [T], prep: &PreparedMultiplicand) -> &'t [T] {
        let n = self.layout.mantissa_width();
        let base = (prep.a << n) as usize;
        &table[base..base + (1usize << n)]
    }

    /// The *exact* value at the same scale as
    /// [`multiply`](MantissaMultiplier::multiply)'s result
    /// (`a·b`, shifted right by `n` for truncated configurations, floor).
    pub fn exact_reference(&self, a: u64, b: u64) -> u64 {
        let p = exact_mul(a, b);
        if self.config().truncate {
            p >> self.layout.mantissa_width()
        } else {
            p
        }
    }

    /// Scales an approximate result back to full product magnitude
    /// (`<< n` for truncated configurations) for error comparisons.
    pub fn to_product_scale(&self, result: u64) -> u64 {
        if self.config().truncate {
            result << self.layout.mantissa_width()
        } else {
            result
        }
    }
}

/// A multiplicand bound for batched multiplies against many multipliers
/// — see [`MantissaMultiplier::prepare`]. Narrow mantissas carry just
/// the value (it indexes the memoized product-table row); wider ones
/// also carry their chunk tables inline.
#[derive(Debug, Clone)]
pub struct PreparedMultiplicand {
    a: u64,
    /// The chunk tables (`None` when the multiplier serves products from
    /// its memoized table instead).
    chunks: Option<ChunkTables>,
}

impl PreparedMultiplicand {
    /// The bound multiplicand value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.a
    }

    #[inline]
    fn chunk_tables(&self) -> &ChunkTables {
        self.chunks.as_ref().expect("multiplicand was prepared for a product-table multiplier")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiplierKind;

    fn tables(m: &MantissaMultiplier) -> Option<&Arc<ProductTables>> {
        match &m.products {
            Products::Table(tables) => Some(tables),
            Products::Chunked(_) => None,
        }
    }

    fn all_multipliers(n: u32) -> Vec<MantissaMultiplier> {
        MultiplierConfig::ALL
            .iter()
            .map(|&c| MantissaMultiplier::new(c, OperandMode::Fp, n))
            .collect()
    }

    /// All 8-bit fp mantissas (leading one set).
    fn fp_mantissas_8() -> impl Iterator<Item = u64> {
        0x80u64..=0xFF
    }

    #[test]
    fn approx_never_exceeds_exact() {
        // OR(x, y) = x + y - (x & y) <= x + y, inductively for any count;
        // pre-computed lines replace ORs with exact sums, still <= exact.
        for m in all_multipliers(8) {
            for a in fp_mantissas_8().step_by(7) {
                for b in fp_mantissas_8().step_by(5) {
                    let approx = m.to_product_scale(m.multiply(a, b));
                    let exact = exact_mul(a, b);
                    assert!(
                        approx <= exact,
                        "{}: {a:#x}*{b:#x}: approx {approx:#x} > exact {exact:#x}",
                        m.config()
                    );
                }
            }
        }
    }

    #[test]
    fn approx_dominates_largest_partial_product() {
        // The OR contains every activated line, so the result is at least
        // the largest partial product (A is always active in fp mode).
        for m in all_multipliers(8) {
            for a in fp_mantissas_8().step_by(11) {
                for b in fp_mantissas_8().step_by(13) {
                    let approx = m.to_product_scale(m.multiply(a, b));
                    let floor = (a << 7) >> if m.config().truncate { 8 } else { 0 }
                        << if m.config().truncate { 8 } else { 0 };
                    assert!(
                        approx >= floor,
                        "{}: {a:#x}*{b:#x}: approx {approx:#x} < A-line floor",
                        m.config()
                    );
                }
            }
        }
    }

    #[test]
    fn single_bit_multiplier_is_exact() {
        // popcount(b) == 1 means a single PP: no OR collision possible.
        let m = MantissaMultiplier::new(MultiplierConfig::FLA, OperandMode::Int, 8);
        for a in 0u64..=0xFF {
            for s in 0..8 {
                let b = 1u64 << s;
                assert_eq!(m.multiply(a, b), a * b);
            }
        }
    }

    #[test]
    fn power_of_two_multiplier_exact_in_fp_mode() {
        // b = 1000_0000 (only the implicit one): a single active line, so
        // the result is exact *at the retained precision* (truncated
        // configs still floor away the low n columns — that is the
        // truncation cost, not an OR collision).
        for m in all_multipliers(8) {
            for a in fp_mantissas_8() {
                let b = 0x80u64;
                assert_eq!(m.multiply(a, b), m.exact_reference(a, b), "{}", m.config());
            }
        }
    }

    #[test]
    fn pc2_exact_when_only_top_two_bits() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        for a in fp_mantissas_8() {
            assert_eq!(m.multiply(a, 0b1100_0000), a * 0b1100_0000);
        }
    }

    #[test]
    fn pc3_exact_when_only_top_three_bits() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        for a in fp_mantissas_8() {
            for b in [0b1000_0000u64, 0b1100_0000, 0b1010_0000, 0b1110_0000] {
                assert_eq!(m.multiply(a, b), a * b, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn fla_is_not_exact_for_top_two_bits() {
        // The collision PC2 repairs: FLA ORs A and B, losing carries for
        // almost every multiplicand.
        let m = MantissaMultiplier::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        let a = 0b1111_1111u64;
        let b = 0b1100_0000u64;
        assert!(m.multiply(a, b) < a * b);
    }

    #[test]
    fn truncated_equals_full_shifted_patterns_or() {
        // Truncation drops columns *before* the OR (they physically don't
        // exist); verify against an explicitly-computed reference.
        let full = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Fp, 8);
        let tr = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        for a in fp_mantissas_8().step_by(3) {
            for b in fp_mantissas_8().step_by(3) {
                let mask = full.layout().decode(b);
                let mut expect = 0u64;
                for i in 0..full.layout().len() {
                    if (mask >> i) & 1 == 1 {
                        expect |= full.layout().stored_pattern(i, a) >> 8;
                    }
                }
                assert_eq!(tr.multiply(a, b), expect, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn truncate_before_or_differs_from_after() {
        // Shifting the full OR right is NOT the same as ORing the shifted
        // patterns when a pre-computed sum carries into the kept columns…
        // actually pre-sums are computed exactly *then* truncated, so the
        // stored pattern keeps those carries. Verify at least one operand
        // pair where (full OR) >> n == truncated OR fails or holds —
        // the semantics we implement is "truncate each stored line".
        let full = MantissaMultiplier::new(MultiplierConfig::FLA, OperandMode::Fp, 8);
        let tr = MantissaMultiplier::new(
            MultiplierConfig { kind: MultiplierKind::Fla, truncate: true },
            OperandMode::Fp,
            8,
        );
        // For FLA (no pre-sums) per-line truncation loses exactly the low
        // columns, so both orders agree.
        for a in fp_mantissas_8().step_by(17) {
            for b in fp_mantissas_8().step_by(19) {
                assert_eq!(tr.multiply(a, b), full.multiply(a, b) >> 8);
            }
        }
    }

    #[test]
    fn pc3_beats_pc2_beats_fla_on_average() {
        // Mean relative error must strictly improve with deeper
        // pre-computation (the reason PC3 exists).
        let mut errs = Vec::new();
        for kind in MultiplierKind::ALL {
            let m = MantissaMultiplier::new(
                MultiplierConfig { kind, truncate: false },
                OperandMode::Fp,
                8,
            );
            let mut total = 0.0;
            let mut count = 0u32;
            for a in fp_mantissas_8() {
                for b in fp_mantissas_8() {
                    let approx = m.multiply(a, b) as f64;
                    let exact = (a * b) as f64;
                    total += (exact - approx) / exact;
                    count += 1;
                }
            }
            errs.push(total / count as f64);
        }
        assert!(errs[2] < errs[1], "PC3 {} !< PC2 {}", errs[2], errs[1]);
        assert!(errs[1] < errs[0], "PC2 {} !< FLA {}", errs[1], errs[0]);
    }

    #[test]
    fn int_pc2_loses_lsb_pp() {
        // Fig. 2 trade-off: with only bit 0 set, the integer-mode PC2
        // multiplier returns 0.
        let m = MantissaMultiplier::new(MultiplierConfig::PC2, OperandMode::Int, 8);
        assert_eq!(m.multiply(0xAB, 0b0000_0001), 0);
        // …but repairs the A+B collision exactly.
        assert_eq!(m.multiply(0xAB, 0b1100_0000), 0xAB * 0b1100_0000);
    }

    #[test]
    fn int_pc3_extension_is_exact_on_top_three() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3, OperandMode::Int, 8);
        for b in [0b1110_0000u64, 0b0110_0000, 0b1010_0000, 0b0100_0000] {
            assert_eq!(m.multiply(0xF7, b), 0xF7 * b, "b={b:#x}");
        }
    }

    #[test]
    fn zero_multiplier_gives_zero() {
        for m in all_multipliers(8) {
            assert_eq!(m.multiply(0xFF, 0), 0);
        }
    }

    #[test]
    fn fp32_width_works() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 24);
        let a = 0xB5_A3_7Fu64 | (1 << 23);
        let b = 0x9C_11_55u64 | (1 << 23);
        let approx = m.to_product_scale(m.multiply(a, b));
        let exact = a * b;
        assert!(approx <= exact);
        // PC3's worst case is just under 20% (exhaustive analysis); any
        // single pair must stay within that envelope.
        let rel = (exact - approx) as f64 / exact as f64;
        assert!(rel < 0.20, "rel error {rel}");
    }

    #[test]
    fn lut_matches_bitwise_exhaustively_fp_mode() {
        // The memoized table must be indistinguishable from the direct
        // wired-OR computation for every decodable operand pair.
        for m in all_multipliers(8) {
            assert!(tables(&m).is_some(), "{}: 8-bit multiplier should carry a LUT", m.config());
            for a in fp_mantissas_8() {
                for b in fp_mantissas_8() {
                    assert_eq!(
                        m.multiply(a, b),
                        m.multiply_bitwise(a, b),
                        "{}: a={a:#x} b={b:#x}",
                        m.config()
                    );
                }
                assert_eq!(m.multiply(a, 0), 0);
            }
        }
    }

    #[test]
    fn lut_matches_bitwise_exhaustively_int_mode() {
        for kind in MultiplierKind::ALL {
            for truncate in [false, true] {
                let m = MantissaMultiplier::new(
                    MultiplierConfig { kind, truncate },
                    OperandMode::Int,
                    8,
                );
                for a in (0u64..256).step_by(3) {
                    for b in 0u64..256 {
                        assert_eq!(
                            m.multiply(a, b),
                            m.multiply_bitwise(a, b),
                            "{}: a={a:#x} b={b:#x}",
                            m.config()
                        );
                    }
                }
            }
        }
    }

    /// A small seeded generator (SplitMix64) for operand samples.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every multiplier this width/mode can decode, in ascending order,
    /// taking every `step`-th one (fp mode: zero plus the leading-one
    /// values).
    fn multipliers(n: u32, mode: OperandMode, step: usize) -> impl Iterator<Item = u64> {
        let lo = if mode == OperandMode::Fp { 1u64 << (n - 1) } else { 1 };
        std::iter::once(0).chain((lo..1u64 << n).step_by(step))
    }

    /// The chunk-table read (scalar and lane-grouped) against the
    /// decode-then-OR reference for every `b` of `multipliers`.
    fn assert_chunks_match_bitwise(m: &MantissaMultiplier, a: u64, step: usize) {
        let n = m.mantissa_width();
        let prep = m.prepare(a);
        assert!(prep.chunks.is_some(), "{} n={n}: chunk path expected", m.config());
        let bs: Vec<u64> = multipliers(n, m.layout().mode(), step).collect();
        for group in bs.chunks(8) {
            let mut lanes = [0u64; 8];
            lanes[..group.len()].copy_from_slice(group);
            let got = m.mul_lanes(&prep, &lanes);
            for (j, &b) in group.iter().enumerate() {
                let expect = m.multiply_bitwise(a, b);
                assert_eq!(
                    m.multiply_prepared(&prep, b),
                    expect,
                    "{} {:?} n={n}: a={a:#x} b={b:#x}",
                    m.config(),
                    m.layout().mode()
                );
                assert_eq!(got[j], expect, "{} n={n}: lane a={a:#x} b={b:#x}", m.config());
            }
        }
    }

    fn every_config_and_mode(n: u32) -> impl Iterator<Item = MantissaMultiplier> {
        MultiplierConfig::ALL.into_iter().flat_map(move |c| {
            [OperandMode::Fp, OperandMode::Int].map(|mode| MantissaMultiplier::new(c, mode, n))
        })
    }

    #[test]
    fn chunk_tables_match_bitwise_exhaustively_at_9_and_10_bits() {
        for n in [9u32, 10] {
            for m in every_config_and_mode(n) {
                for a in 0..1u64 << n {
                    assert_chunks_match_bitwise(&m, a, 1);
                }
            }
        }
    }

    #[test]
    fn chunk_tables_match_bitwise_for_every_multiplier_at_wide_widths() {
        // All b for a seeded sample of a (plus the extreme leading-one
        // multiplicands below 24 bits). At 24 bits "all b" is 2^24
        // decodes per multiplicand: unoptimised builds walk every 257th
        // multiplier instead (still hitting every chunk value), release
        // builds walk them all.
        let mut seed = 0x5EED_0009;
        for (n, samples) in [(11u32, 12), (12, 6), (24, 1)] {
            let step = if n == 24 && cfg!(debug_assertions) { 257 } else { 1 };
            for m in every_config_and_mode(n) {
                let top = 1u64 << (n - 1);
                let mut as_ = if n < 24 { vec![top, (1 << n) - 1] } else { Vec::new() };
                as_.extend((0..samples).map(|_| splitmix(&mut seed) & bits::mask(n)));
                for a in as_ {
                    assert_chunks_match_bitwise(&m, a, step);
                }
            }
        }
    }

    #[test]
    fn prepared_path_matches_plain_multiply() {
        // Narrow (table) and wide (chunk-table) widths both go through
        // `prepare`; results must be bit-identical to `multiply` at
        // every supported width, in both operand modes.
        let mut seed = 0x5EED_0001;
        for n in 4u32..=24 {
            for m in every_config_and_mode(n) {
                let top = 1u64 << (n - 1);
                let lead = if m.layout().mode() == OperandMode::Fp { top } else { 0 };
                let mut as_ = vec![top, top | 1, top | (top >> 1), (1 << n) - 1];
                let mut bs = vec![0, top, top | 3, top | ((top - 1) / 3), (1 << n) - 1];
                for _ in 0..16 {
                    as_.push(splitmix(&mut seed) & bits::mask(n));
                    bs.push((splitmix(&mut seed) & bits::mask(n)) | lead);
                }
                for &a in &as_ {
                    let prep = m.prepare(a);
                    assert_eq!(prep.value(), a);
                    for &b in &bs {
                        assert_eq!(
                            m.multiply_prepared(&prep, b),
                            m.multiply(a, b),
                            "{} {:?} n={n}: a={a:#x} b={b:#x}",
                            m.config(),
                            m.layout().mode()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "leading one")]
    fn chunk_path_rejects_fp_multiplier_without_leading_one() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 11);
        let prep = m.prepare(0x500);
        let _ = m.multiply_prepared(&prep, 0x3FF);
    }

    #[test]
    fn wide_multiplier_skips_lut() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 24);
        assert!(tables(&m).is_none(), "24-bit table would need 2^48 entries");
    }

    #[test]
    fn lut_storage_is_shared_between_instances() {
        let a = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        let b = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, 8);
        let (la, lb) = (tables(&a).unwrap(), tables(&b).unwrap());
        assert!(std::sync::Arc::ptr_eq(la, lb), "memo cache must deduplicate tables");
    }

    #[test]
    fn result_width_reporting() {
        let m = MantissaMultiplier::new(MultiplierConfig::PC2, OperandMode::Fp, 8);
        assert_eq!(m.result_width(), 16);
        let t = MantissaMultiplier::new(MultiplierConfig::PC2_TR, OperandMode::Fp, 8);
        assert_eq!(t.result_width(), 8);
    }
}

//! The batched GEMM engine: one tiled, cache-blocked, multi-threaded
//! kernel shared by the DNN layers (`daism-dnn`), the functional
//! datapath reference (`daism-arch`) and the figure runners
//! (`daism-bench`).
//!
//! # Design
//!
//! `C[m×n] += A[m×k] · B[k×n]` (row-major) with every scalar product
//! routed through a [`ScalarMul`] backend and accumulation at `f32`.
//! The engine has one plan, modelled on how DAISM programs the stored
//! operand into its SRAM banks once and streams the other past it:
//! **pick a form for B, then walk its tiles.**
//!
//! * **B forms.** B is cut into `KC × NC` tiles (`KC` rows of depth,
//!   `NC` columns), walked `j0` outer and `l0` inner. Each tile is
//!   consumed in one of three forms:
//!   * *raw* — the fused loop issues one [`ScalarMul::mul_rows`] per
//!     (A-element, B-row-segment) pair. Used for `m == 1`, for backends
//!     without a decoded form, and for tiny native-`f32` problems, where
//!     converting B has no cross-row reuse to amortise;
//!   * *decoded* — [`ScalarMul::prepare_tile`] decodes the whole tile
//!     once into one [`PreparedTile`]: each tile row keeps only its
//!     nonzero lanes, packed at the front of a fixed-stride row slab
//!     with their column index and followed by the row's count of kept
//!     lanes. [`ScalarMul::mul_tile_row`] then visits those lanes for
//!     every C row and scatter-adds them into C, so per-MAC operand
//!     decode disappears from the approximate backends and per-MAC cost
//!     follows the nonzeros;
//!   * *packed* — native-`f32` backends pack each tile into `NR`-major
//!     panels for the register-tile microkernel.
//! * **Prepare once or per call.** [`gemm`] builds each decoded or
//!   packed tile from the raw matrix as the walk reaches it;
//!   [`GemmBackend::prepare_b`] builds all of them up front, and
//!   [`GemmBackend::gemm_prepared_b`] replays them. Both end in the same
//!   walk.
//! * **One backend handle.** [`GemmBackend`] is what every caller above
//!   the engine takes: every [`ScalarMul`] implements it through this
//!   walk, and [`BlockFpGemm`] through its integer tile walk.
//! * **Row-panel parallelism.** Above a MAC gate, every tile's C rows
//!   are split into chunks over the persistent worker pool (rayon).
//!   Tiles are shared read-only across chunks, so B is converted once
//!   per GEMM, not per thread, and chunks write disjoint C regions.
//!
//! # Bit-exactness
//!
//! [`gemm`] is a *speed* refactor, not a semantics change: for every
//! output element the products are accumulated in ascending-`k` order,
//! exactly as the scalar reference loop does, so results are
//! **bit-identical** to [`gemm_reference`] for every backend, B form and
//! chunk size (enforced by the differential property suite in
//! `tests/gemm_differential.rs`).
//!
//! Zero operands are skipped rather than multiplied — mirroring the
//! hardware's zero gating (paper §III-C), where a zero operand never
//! activates the SRAM array. Zero A elements are tested per row; zero B
//! lanes are dropped when a tile is decoded, so the MAC loop never
//! visits them at all. Skipping is bit-identical to accumulating the
//! `±0.0` product because a `+0.0` accumulator absorbs signed zeros.
//! (Lanes that are nonzero `f32`s but flush to format zero are kept:
//! their signed-zero product can flip a `-0.0` accumulator, and the
//! scalar path accumulates it.)

use crate::config::{MultiplierConfig, OperandMode};
use crate::fp::{PreparedTile, TileSource};
use crate::mantissa::MantissaMultiplier;
use crate::microkernel::{self, PackedBBlock};
use crate::ScalarMul;
use daism_num::BlockFp;
use rayon::prelude::*;
use std::fmt;

/// Rows of C per parallel panel (upper bound; small problems split
/// finer so every worker gets rows).
const MC: usize = 32;
/// Depth (k) block: B rows resident per pass.
pub(crate) const KC: usize = 256;
/// Column block: B row-segment / C row-segment width per pass.
pub(crate) const NC: usize = 1024;
/// Minimum MAC count before worker threads are engaged. With the
/// persistent pool (vendor/rayon) dispatch costs a queue push + condvar
/// wake rather than a thread spawn, so the gate sits far lower than the
/// old per-call-spawn polyfill allowed — small conv layers and error
/// sweeps parallelise too.
const PAR_MIN_MACS: usize = 1 << 14;
/// Minimum MAC count before the packed `f32` microkernel beats the
/// fused row loop (packing a tiny problem costs more than it saves) —
/// measured, not guessed: below this the fused loop *is* the naive
/// reference, so no shape can regress against it.
const MICRO_MIN_MACS: usize = 1 << 12;
/// Minimum C rows for the microkernel: fewer than one register tile of
/// rows leaves only the fringe kernel, which matches the fused loop.
const MICRO_MIN_M: usize = 4;

fn check_shapes(a: &[f32], b: &[f32], c: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert_eq!(c.len(), m * n, "C has wrong length");
}

/// The one parallel gate every engine entry point shares — [`gemm`],
/// the prepared-operand GEMMs and the BlockFp engine must dispatch
/// identically or their bit-identity contracts stop being testable one
/// path at a time. `Some(chunk_rows)` when the problem clears the
/// MAC/thread/row gates (C row chunks sized so every worker gets a
/// share, capped at `MC` rows for cache residency); `None` for the
/// serial path.
fn par_chunk_rows(m: usize, k: usize, n: usize) -> Option<usize> {
    let macs = m.saturating_mul(k).saturating_mul(n);
    let threads = rayon::current_num_threads();
    if m > 1 && threads > 1 && macs >= PAR_MIN_MACS {
        Some(MC.min(m.div_ceil(threads)).max(1))
    } else {
        None
    }
}

/// The scalar reference: `C += A·B` with one [`ScalarMul::mul_rows`] per
/// (A-element, B-row) pair, rows processed in order, no tiling and no
/// threads.
///
/// This is the semantic anchor the tiled engine is differentially tested
/// against, and the baseline the GEMM bench measures speedups from.
/// Zero A-elements are skipped (hardware zero gating, §III-C);
/// `mul_rows` applies the same gating to B.
///
/// # Panics
///
/// Panics if slice lengths do not match the shape.
pub fn gemm_reference(
    mul: &dyn ScalarMul,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_shapes(a, b, c, m, k, n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (l, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue; // zero bypass, as the hardware does
            }
            mul.mul_rows(av, &b[l * n..(l + 1) * n], crow);
        }
    }
}

/// `C[m×n] += A[m×k] · B[k×n]` (row-major) through the tiled,
/// cache-blocked, pre-decoded, parallel engine — bit-identical to
/// [`gemm_reference`], much faster.
///
/// Picks a form for B, then runs the same tile walk as
/// [`GemmBackend::gemm_prepared_b`], converting each tile as it gets there:
/// backends with a decoded form ([`ScalarMul::prepare_tile`]) decode
/// each `KC×NC` B tile once, dropping its zero lanes, and share it
/// across rows and threads; native-`f32` backends pack it for the
/// register-tile microkernel. `m == 1`, backends without a decoded form
/// and tiny native-`f32` problems, where conversion has no cross-row
/// reuse to amortise, keep the fused per-call path. Small problems
/// (under ~16k MACs) run serially; larger ones split C row panels across
/// the persistent worker pool. Either way the per-element accumulation
/// order is ascending-`k`, so the result does not depend on problem
/// size or thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the shape.
///
/// # Examples
///
/// ```
/// use daism_core::{gemm, ExactMul};
///
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
/// let b = [5.0, 6.0, 7.0, 8.0]; // 2x2
/// let mut c = [0.0f32; 4];
/// gemm(&ExactMul, &a, &b, &mut c, 2, 2, 2);
/// assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn gemm(
    mul: &dyn ScalarMul,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_shapes(a, b, c, m, k, n);
    if m == 0 || n == 0 || k == 0 {
        return; // nothing to accumulate
    }
    let macs = m.saturating_mul(k).saturating_mul(n);
    let form = if mul.is_native_f32() {
        // The packed microkernel wins once there is enough work to
        // amortise packing; below that the fused loop is exactly the
        // reference loop, so neither regime regresses below naive.
        if m >= MICRO_MIN_M && macs >= MICRO_MIN_MACS {
            BForm::Packed(BTiles::Raw(b))
        } else {
            BForm::Raw(b)
        }
    } else if m > 1 {
        BForm::Tiles(BTiles::Raw(b))
    } else {
        BForm::Raw(b)
    };
    run(mul, a, form, c, k, n, par_chunk_rows(m, k, n));
}

/// One block of the B matrix: depth rows `[l0, l1)` crossed with
/// columns `[j0, j1)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tile {
    pub(crate) l0: usize,
    pub(crate) l1: usize,
    pub(crate) j0: usize,
    pub(crate) j1: usize,
}

/// The `tile_k × tile_n` tiles of a `k × n` B matrix in the one walk
/// order every engine uses: `j0` outer, `l0` inner, so each output
/// element sees its depth blocks in ascending `k`.
pub(crate) fn tiles(
    k: usize,
    n: usize,
    tile_k: usize,
    tile_n: usize,
) -> impl Iterator<Item = Tile> {
    (0..n).step_by(tile_n).flat_map(move |j0| {
        (0..k).step_by(tile_k).map(move |l0| Tile {
            l0,
            l1: (l0 + tile_k).min(k),
            j0,
            j1: (j0 + tile_n).min(n),
        })
    })
}

/// Where a tile walk gets each B tile from: built from the raw matrix
/// as the walk reaches it (an eager call), or read from a set prepared
/// up front in the same walk order.
enum BTiles<'a, T> {
    Raw(&'a [f32]),
    Prepared(&'a [T]),
}

// Manual impls: the derives would demand `T: Copy`.
impl<T> Clone for BTiles<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for BTiles<'_, T> {}

/// The form [`run`] consumes B in. See the module docs.
#[derive(Clone, Copy)]
enum BForm<'a> {
    /// The raw values through the fused `mul_rows` loop.
    Raw(&'a [f32]),
    /// One [`PreparedTile`] per tile; eagerly, a tile the backend has no
    /// form for ([`ScalarMul::prepare_tile`] returns `None`) runs raw.
    Tiles(BTiles<'a, PreparedTile>),
    /// `NR`-major packed tiles for the native-`f32` microkernel.
    Packed(BTiles<'a, PackedBBlock>),
}

/// One tile of B in the form [`tile_rows`] consumes.
#[derive(Clone, Copy)]
enum TileB<'a> {
    Raw(&'a [f32]),
    Decoded(&'a PreparedTile),
    Packed(&'a PackedBBlock),
}

/// The one float tile walk behind [`gemm`] and a scalar backend's
/// [`GemmBackend::gemm_prepared_b`]:
/// each tile of `b` in walk order, MAC'd into all of C at once
/// (`chunk_rows == None`) or into `chunk_rows`-row C chunks over the
/// pool. Bit-identical either way — each element accumulates in
/// ascending `k`, and chunks write disjoint rows. Tiles decoded per
/// call are decoded across the pool exactly when C is split.
fn run(
    mul: &dyn ScalarMul,
    a: &[f32],
    b: BForm<'_>,
    c: &mut [f32],
    k: usize,
    n: usize,
    chunk_rows: Option<usize>,
) {
    for (ti, tile) in tiles(k, n, KC, NC).enumerate() {
        let (decoded, block);
        let tb = match b {
            BForm::Raw(raw) => TileB::Raw(raw),
            BForm::Tiles(BTiles::Raw(raw)) => {
                decoded = mul.prepare_tile(&TileSource::new(raw, n, tile, chunk_rows.is_some()));
                decoded.as_ref().map_or(TileB::Raw(raw), TileB::Decoded)
            }
            BForm::Tiles(BTiles::Prepared(tiles)) => TileB::Decoded(&tiles[ti]),
            BForm::Packed(BTiles::Raw(raw)) => {
                block = microkernel::pack_b(raw, n, tile);
                TileB::Packed(&block)
            }
            BForm::Packed(BTiles::Prepared(blocks)) => TileB::Packed(&blocks[ti]),
        };
        match chunk_rows {
            None => tile_rows(mul, a, tb, c, 0, k, n, tile),
            Some(cr) => c.par_chunks_mut(cr * n).enumerate().for_each(|(ci, cpanel)| {
                tile_rows(mul, a, tb, cpanel, ci * cr, k, n, tile);
            }),
        }
    }
}

/// Runs the MAC loops of one tile over the C rows in `c`, a `rows × n`
/// slab starting at row `row0` of the full `a`.
#[allow(clippy::too_many_arguments)] // internal kernel seam, mirrors BlockFpGemm::mac_rows
fn tile_rows(
    mul: &dyn ScalarMul,
    a: &[f32],
    b: TileB<'_>,
    c: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    tile: Tile,
) {
    let (j0, j1) = (tile.j0, tile.j1);
    match b {
        TileB::Raw(raw) => mac_rows(a, c, row0, k, n, tile, |av, l, crow| {
            mul.mul_rows(av, &raw[l * n + j0..l * n + j1], crow)
        }),
        TileB::Decoded(decoded) => mac_rows(a, c, row0, k, n, tile, |av, l, crow| {
            mul.mul_tile_row(av, decoded, l - tile.l0, crow)
        }),
        TileB::Packed(blk) => {
            microkernel::packed_rows(a, blk, c, row0, k, n, microkernel::avx2_available())
        }
    }
}

/// The scalar-backend row loop of one tile: `mac(a_il, l, c_row)` for
/// every non-zero A element, ascending `l` — the bit-exactness
/// invariant.
fn mac_rows(
    a: &[f32],
    c: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    tile: Tile,
    mac: impl Fn(f32, usize, &mut [f32]),
) {
    for (r, crow) in c.chunks_exact_mut(n).enumerate() {
        let arow = &a[(row0 + r) * k..(row0 + r + 1) * k];
        let crow = &mut crow[tile.j0..tile.j1];
        for (l, &av) in arow.iter().enumerate().take(tile.l1).skip(tile.l0) {
            if av != 0.0 {
                mac(av, l, crow); // zero A bypassed, as the hardware does
            }
        }
    }
}

// -------------------------------------------------------------------
// The backend trait: stored operands prepared once, served many times
// -------------------------------------------------------------------

/// A GEMM datapath — the one handle the DNN layers, compiled sessions
/// and benchmark runners take. Every [`ScalarMul`] implements it through
/// [`gemm`]'s tile walk (a blanket impl), and [`BlockFpGemm`] through its
/// integer tile walk (paper §IV-B).
///
/// Both model how DAISM runs a matrix product: one operand is *stored*
/// (programmed into the SRAM banks once) and the other *streams* past
/// it. [`prepare_a`](Self::prepare_a) / [`prepare_b`](Self::prepare_b)
/// do the stored operand's conversion once, and
/// [`gemm_prepared_a`](Self::gemm_prepared_a) /
/// [`gemm_prepared_b`](Self::gemm_prepared_b) replay it against many
/// streamed operands — **bit-identical** to [`gemm`](Self::gemm) on the
/// same values, for every shape including `m == 1`.
///
/// A prepared operand belongs to the backend class that made it: a
/// BlockFp form served through a scalar multiplier (or the reverse)
/// panics, and so does a panel packed for native `f32` served through a
/// non-native multiplier. Decoded tiles served through a *different*
/// tile-decoding multiplier stay correct (they fall back to their raw
/// rows).
///
/// # Examples
///
/// ```
/// use daism_core::{ApproxFpMul, BlockFpGemm, GemmBackend, MultiplierConfig};
/// use daism_num::FpFormat;
///
/// let bf16 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
/// let bfp = BlockFpGemm::new(MultiplierConfig::PC3_TR, 9);
/// let backends: [&dyn GemmBackend; 2] = [&bf16, &bfp];
/// let w = [0.5f32, 1.5, -2.0, 0.75]; // 2x2 weights, stored once…
/// let x = [1.0f32, -0.5]; // …served against many requests
/// for backend in backends {
///     let stored = backend.prepare_b(&w, 2, 2);
///     let mut served = [0.0f32; 2];
///     backend.gemm_prepared_b(&x, &stored, &mut served, 1);
///     let mut eager = [0.0f32; 2];
///     backend.gemm(&x, &w, &mut eager, 1, 2, 2);
///     assert_eq!(served, eager, "{}", backend.name()); // bit-identical
/// }
/// ```
pub trait GemmBackend: fmt::Debug + fmt::Display + Send + Sync {
    /// Human-readable backend name for reports (e.g. `"bfloat16/PC3_tr"`
    /// or `"blockfp9/PC3_tr"`): the backend's `Display` form.
    fn name(&self) -> String {
        self.to_string()
    }

    /// `C[m×n] += A[m×k] · B[k×n]` (row-major), converting both operands
    /// on this call.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape.
    fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

    /// Prepares the `m × k` matrix `a` as a stored A operand for
    /// repeated [`gemm_prepared_a`](Self::gemm_prepared_a) calls.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    fn prepare_a(&self, a: &[f32], m: usize, k: usize) -> PreparedA;

    /// Prepares the `k × n` matrix `b` as a stored B operand for
    /// repeated [`gemm_prepared_b`](Self::gemm_prepared_b) calls.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    fn prepare_b(&self, b: &[f32], k: usize, n: usize) -> PreparedB;

    /// [`gemm`](Self::gemm) against a stored A; `m` and `k` come from
    /// the prepared operand.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape, or if `a` was
    /// prepared by another backend class or another BlockFp geometry.
    fn gemm_prepared_a(&self, a: &PreparedA, b: &[f32], c: &mut [f32], n: usize);

    /// [`gemm`](Self::gemm) against a stored B; `k` and `n` come from
    /// the prepared operand.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape, or if `b` was
    /// prepared by another backend class, another BlockFp geometry, or
    /// (packed panels) a native-`f32` multiplier for a non-native one.
    fn gemm_prepared_b(&self, a: &[f32], b: &PreparedB, c: &mut [f32], m: usize);

    /// `true` when C's columns are not computed independently of each
    /// other: B is quantized per tile, so the columns of one tile share
    /// an exponent. When a stored-A GEMM streams a micro-batch as B
    /// columns (a conv's lowered input), each sample's result then
    /// depends on its batch neighbours. Only BlockFp does this; a scalar
    /// multiplier's products are column- and row-independent.
    fn couples_b_columns(&self) -> bool;
}

/// A stored A operand made by [`GemmBackend::prepare_a`]: a plain copy
/// for scalar multipliers (their tile walk prepares A per row on every
/// call), per-`(row, k-tile)` BlockFp blocks for [`BlockFpGemm`].
#[derive(Debug, Clone)]
pub struct PreparedA {
    m: usize,
    k: usize,
    stored: StoredA,
}

#[derive(Debug, Clone)]
enum StoredA {
    Raw(Vec<f32>),
    /// With the engine's `(man_width, tile_k)`.
    BlockFp {
        blocks: Vec<BlockFp>,
        geometry: (u32, usize),
    },
}

/// A stored B operand made by [`GemmBackend::prepare_b`] — the operand
/// conversion [`gemm`] redoes on **every** call, hoisted out so a
/// weight-stationary caller (a compiled inference session serving many
/// requests against fixed weights) pays it once per weight matrix.
///
/// What it holds depends on the backend that prepared it:
///
/// * native-`f32` multipliers — `NR`-major packed panels for the
///   register-tile microkernel;
/// * tile-decoding multipliers ([`ApproxFpMul`](crate::ApproxFpMul) on
///   the fast formats, [`QuantizedExactMul`](crate::QuantizedExactMul))
///   — one decoded [`PreparedTile`] per `KC × NC` tile, each row keeping
///   only its nonzero lanes and their count;
/// * other scalar multipliers — the raw values, which the fused loop
///   re-derives per call exactly as [`gemm`] does;
/// * [`BlockFpGemm`] — one quantized block per `tile_k × tile_n` tile.
///
/// A scalar stored B serves `m == 1` from the cache too, although
/// [`gemm`] keeps that case on the fused path: single-sample inference
/// requests are exactly where a per-request B re-decode hurts most.
#[derive(Debug, Clone)]
pub struct PreparedB {
    k: usize,
    n: usize,
    stored: StoredB,
}

#[derive(Debug, Clone)]
enum StoredB {
    Fused(Vec<f32>),
    /// One per `KC × NC` tile, in walk order.
    Tiles(Vec<PreparedTile>),
    /// One per `KC × NC` tile, in walk order.
    Packed(Vec<PackedBBlock>),
    /// One per tile in walk order, with the engine's
    /// `(man_width, tile_k, tile_n)`.
    BlockFp {
        tiles: Vec<BlockFp>,
        geometry: (u32, usize, usize),
    },
}

impl PreparedB {
    /// Depth (rows of the prepared matrix).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Width (columns of the prepared matrix).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }
}

impl<T: ScalarMul> GemmBackend for T {
    fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        gemm(self, a, b, c, m, k, n);
    }

    fn prepare_a(&self, a: &[f32], m: usize, k: usize) -> PreparedA {
        assert_eq!(a.len(), m * k, "A has wrong length");
        PreparedA { m, k, stored: StoredA::Raw(a.to_vec()) }
    }

    fn prepare_b(&self, b: &[f32], k: usize, n: usize) -> PreparedB {
        scalar_prepare_b(self, b, k, n)
    }

    fn gemm_prepared_a(&self, a: &PreparedA, b: &[f32], c: &mut [f32], n: usize) {
        let StoredA::Raw(raw) = &a.stored else {
            panic!("prepared A was quantized by a BlockFp engine; {self} cannot consume it");
        };
        gemm(self, raw, b, c, a.m, a.k, n);
    }

    fn gemm_prepared_b(&self, a: &[f32], b: &PreparedB, c: &mut [f32], m: usize) {
        scalar_gemm_prepared_b(self, a, b, c, m);
    }

    fn couples_b_columns(&self) -> bool {
        false
    }
}

/// A scalar multiplier's stored B: every tile packed (native `f32`) or
/// decoded, or the raw values when `mul` has no decoded form.
fn scalar_prepare_b(mul: &dyn ScalarMul, b: &[f32], k: usize, n: usize) -> PreparedB {
    assert_eq!(b.len(), k * n, "B has wrong length");
    let walk = tiles(k, n, KC, NC);
    let stored = if mul.is_native_f32() {
        StoredB::Packed(walk.map(|t| microkernel::pack_b(b, n, t)).collect())
    } else {
        match walk.map(|t| mul.prepare_tile(&TileSource::new(b, n, t, false))).collect() {
            Some(tiles) => StoredB::Tiles(tiles),
            None => StoredB::Fused(b.to_vec()),
        }
    };
    PreparedB { k, n, stored }
}

/// [`gemm`]'s walk over a stored B: the same thread gate and row
/// chunking, with every per-call B conversion already paid.
fn scalar_gemm_prepared_b(mul: &dyn ScalarMul, a: &[f32], b: &PreparedB, c: &mut [f32], m: usize) {
    let (k, n) = (b.k, b.n);
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(c.len(), m * n, "C has wrong length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let form = match &b.stored {
        // The packed form drops the raw values: no correct fallback.
        StoredB::Packed(blocks) => {
            assert!(
                mul.is_native_f32(),
                "prepared B was packed for a native-f32 backend; {mul} cannot consume it"
            );
            BForm::Packed(BTiles::Prepared(blocks))
        }
        StoredB::Tiles(tiles) => BForm::Tiles(BTiles::Prepared(tiles)),
        StoredB::Fused(raw) => BForm::Raw(raw),
        StoredB::BlockFp { .. } => {
            panic!("prepared B was quantized by a BlockFp engine; {mul} cannot consume it")
        }
    };
    run(mul, a, form, c, k, n, par_chunk_rows(m, k, n));
}

// -------------------------------------------------------------------
// Block-floating-point GEMM engine
// -------------------------------------------------------------------

/// Integer lanes per [`MantissaMultiplier::mul_lanes`] group in the
/// BlockFp MAC kernel.
const I_LANES: usize = 8;

/// The lane-packed integer MAC row: folds one prepared A mantissa
/// against a row of B tile mantissas into the exact `i64` accumulators.
///
/// Rides [`MantissaMultiplier::mul_lanes`] in groups of [`I_LANES`] —
/// the product-table row gather plus a **branchless** per-lane
/// sign/shift fold (`sx ^ sy` select via XOR/subtract), so the loop
/// carries no data-dependent branches at all. Zero B mantissas need no
/// bypass test: their wired-OR read-out is 0 and adding ±0 to an
/// integer accumulator is exact, so the result is bit-identical to the
/// branch-guarded scalar reference.
fn lane_mac(
    mult: &MantissaMultiplier,
    prep: &crate::PreparedMultiplicand,
    ys: &[i32],
    sx: i64,
    shift: u32,
    accs: &mut [i64],
) {
    debug_assert_eq!(ys.len(), accs.len());
    let mut ychunks = ys.chunks_exact(I_LANES);
    let mut achunks = accs.chunks_exact_mut(I_LANES);
    for (yc, ac) in (&mut ychunks).zip(&mut achunks) {
        let mut lanes = [0u64; I_LANES];
        for (lane, &y) in lanes.iter_mut().zip(yc) {
            *lane = y.unsigned_abs() as u64;
        }
        let raws = mult.mul_lanes_trusted(prep, &lanes);
        for ((acc, &raw), &y) in ac.iter_mut().zip(&raws).zip(yc) {
            let s = sx ^ ((y >> 31) as i64);
            let mag = (raw << shift) as i64;
            *acc += (mag ^ s) - s; // s == -1 negates, s == 0 passes through
        }
    }
    for (acc, &y) in achunks.into_remainder().iter_mut().zip(ychunks.remainder()) {
        let raw = mult.multiply_prepared(prep, y.unsigned_abs() as u64);
        let s = sx ^ ((y >> 31) as i64);
        let mag = (raw << shift) as i64;
        *acc += (mag ^ s) - s;
    }
}

/// The tiled block-floating-point GEMM engine: the accelerator's *actual*
/// execution mode (paper §IV-B), at per-tile exponent granularity.
///
/// # Dataflow
///
/// `C[m×n] += Â[m×k] · B̂[k×n]` where the hats denote BlockFp
/// quantization:
///
/// * **A** is quantized per `(row, k-tile)` segment — one shared
///   exponent per `tile_k`-wide row slice
///   ([`BlockFp::quantize_rows`]);
/// * **B** is quantized per `tile_k × tile_n` tile — one shared
///   exponent per tile, quantized **once per GEMM** and shared
///   read-only across every C row (and every worker thread), mirroring
///   the decoded-tile float engine;
/// * mantissa *magnitudes* multiply through the integer-mode
///   OR-approximate [`MantissaMultiplier`] (signs XORed exactly, the
///   LUT row / chunk tables of each A mantissa pre-bound per `(row,
///   l)` via [`MantissaMultiplier::prepare`]);
/// * each tile accumulates in an **exact `i64`** — no per-product
///   exponent datapath, no rounding inside the tile — and is folded
///   into `C` with a single per-tile scale
///   `2^(expA + expB - 2(man_width - 2))` at the C-update.
///
/// # Error model
///
/// Whole-matrix BlockFp (the paper's literal "one exponent per matrix",
/// kept as [`execute_whole_matrix`](Self::execute_whole_matrix)) zeroes
/// every element more than `man_width - 2` octaves below the matrix
/// maximum. Per-tile quantization shrinks the sharing scope from `m·k`
/// elements to `tile_k` (A) / `tile_k·tile_n` (B), so wide-dynamic-range
/// operands keep far more mantissa bits — the differential suite asserts
/// the accuracy win. Within a tile the usual BFP model applies: half a
/// quantization step per operand (one step at the symmetric-clamp
/// extreme), then the OR-approximation's underestimate on top.
///
/// # Determinism
///
/// Per output element, k-tiles fold into `C` in ascending-`k` order and
/// each tile's integer accumulation is exact, so the result is
/// **byte-identical** across thread counts, chunk sizes and repeated
/// runs — the same guarantee the float engine has (asserted by this
/// module's unit tests).
///
/// # Examples
///
/// ```
/// use daism_core::{BlockFpGemm, MultiplierConfig};
///
/// let engine = BlockFpGemm::new(MultiplierConfig::PC3, 12);
/// let a = [1.0f32, -0.5, 0.25, 0.75];
/// let b = [0.5f32, 1.0, -1.0, 0.5];
/// let mut c = [0.0f32; 4];
/// engine.execute(&a, &b, &mut c, 2, 2, 2);
/// // Exact result: [1.0, 0.75, -0.625, -0.125]; BFP+OR stays close.
/// assert!((c[0] - 1.0).abs() < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct BlockFpGemm {
    mult: MantissaMultiplier,
    man_width: u32,
    tile_k: usize,
    tile_n: usize,
}

impl BlockFpGemm {
    /// Builds the engine for `config` with `man_width`-bit signed
    /// mantissas at the default tile geometry (`KC × NC`, shared with
    /// the float engine's cache blocking).
    ///
    /// # Panics
    ///
    /// Panics if `man_width` is outside `5..=25` (the integer multiplier
    /// needs `man_width - 1` in `4..=24`).
    pub fn new(config: MultiplierConfig, man_width: u32) -> Self {
        Self::with_tiles(config, man_width, KC, NC)
    }

    /// Builds the engine with explicit tile geometry. `tile_k` is the
    /// exponent-sharing depth (and the exact-`i64` accumulation span);
    /// `tile_n` the tile width. `tile_k >= k` and `tile_n >= n`
    /// degenerate to one block per A row and one per B matrix.
    ///
    /// # Panics
    ///
    /// Panics if `man_width` is outside `5..=25`, if either tile
    /// dimension is zero, or if `tile_k` is deep enough that a tile's
    /// worst-case integer accumulation could overflow `i64`
    /// (`tile_k > 2^(65 - 2·man_width)`; 32768 at the widest mantissa).
    pub fn with_tiles(
        config: MultiplierConfig,
        man_width: u32,
        tile_k: usize,
        tile_n: usize,
    ) -> Self {
        assert!((5..=25).contains(&man_width), "man_width {man_width} outside 5..=25");
        assert!(tile_k > 0 && tile_n > 0, "tile dimensions must be positive");
        // Each product magnitude is < 2^(2·man_width - 2) at full-product
        // scale, so tile_k of them stay within i64 iff tile_k ≤ 2^(65-2w).
        assert!(
            tile_k <= 1usize << (65 - 2 * man_width).min(63),
            "tile_k {tile_k} too deep for exact i64 accumulation at man_width {man_width}"
        );
        let mult = MantissaMultiplier::new(config, OperandMode::Int, man_width - 1);
        BlockFpGemm { mult, man_width, tile_k, tile_n }
    }

    /// The multiplier configuration.
    #[inline]
    pub fn config(&self) -> MultiplierConfig {
        self.mult.config()
    }

    /// Signed mantissa width in bits (including the sign's magnitude
    /// bit).
    #[inline]
    pub fn man_width(&self) -> u32 {
        self.man_width
    }

    /// Exponent-sharing depth along `k`.
    #[inline]
    pub fn tile_k(&self) -> usize {
        self.tile_k
    }

    /// Tile width along `n`.
    #[inline]
    pub fn tile_n(&self) -> usize {
        self.tile_n
    }

    /// What a stored A's quantization depends on.
    fn geometry_a(&self) -> (u32, usize) {
        (self.man_width, self.tile_k)
    }

    /// What a stored B's quantization depends on.
    fn geometry_b(&self) -> (u32, usize, usize) {
        (self.man_width, self.tile_k, self.tile_n)
    }

    /// Truncated configurations sense only the top `man_width - 1`
    /// product columns; shifting the read-out back left keeps every
    /// product at full 2·(man_width-1)-column scale so one tile scale
    /// serves both modes.
    #[inline]
    fn shift_back(&self) -> u32 {
        if self.mult.config().truncate {
            self.man_width - 1
        } else {
            0
        }
    }

    /// Per-tile result scale: mantissa `q` represents `q · 2^(exp - (w-2))`,
    /// so a product of two mantissas carries `2^(expA + expB - 2(w-2))`.
    #[inline]
    fn tile_scale(&self, exp_a: i32, exp_b: i32) -> f64 {
        2f64.powi(exp_a + exp_b - 2 * (self.man_width as i32 - 2))
    }

    /// Gathers the `tile` slice of row-major B into `buf` and quantizes
    /// it as one block (row-major `[l1-l0, j1-j0]` layout).
    fn gather_tile(&self, b: &[f32], n: usize, tile: Tile, buf: &mut Vec<f32>) -> BlockFp {
        buf.clear();
        for l in tile.l0..tile.l1 {
            buf.extend_from_slice(&b[l * n + tile.j0..l * n + tile.j1]);
        }
        BlockFp::quantize(buf, self.man_width)
    }

    /// Runs one tile's integer MAC loops over the C rows in `c` (a
    /// `rows × n` slab starting at global row `i0`). `a_blocks` is the
    /// whole matrix's per-(row, k-tile) quantization, `nkb` the number of
    /// k-tiles per row; `accs` is the caller's `i64` accumulator scratch
    /// (at least the tile width long).
    #[allow(clippy::too_many_arguments)] // internal kernel seam, mirrors tile_rows
    fn mac_rows(
        &self,
        a_blocks: &[BlockFp],
        nkb: usize,
        i0: usize,
        b_tile: &BlockFp,
        c: &mut [f32],
        n: usize,
        tile: Tile,
        accs: &mut [i64],
    ) {
        let rows = c.len() / n;
        let tw = tile.j1 - tile.j0;
        let lb = tile.l0 / self.tile_k;
        let shift = self.shift_back();
        let exp_b = b_tile.shared_exp();
        let mb = b_tile.mantissas();
        for r in 0..rows {
            let ablock = &a_blocks[(i0 + r) * nkb + lb];
            let accs = &mut accs[..tw];
            accs.fill(0);
            for (dl, &x) in ablock.mantissas().iter().enumerate() {
                if x == 0 {
                    continue; // zero bypass, as the hardware does
                }
                let sx = (x >> 31) as i64; // 0 or -1: branchless sign
                let prep = self.mult.prepare(x.unsigned_abs() as u64);
                lane_mac(&self.mult, &prep, &mb[dl * tw..(dl + 1) * tw], sx, shift, accs);
            }
            let scale = self.tile_scale(ablock.shared_exp(), exp_b);
            let crow = &mut c[r * n + tile.j0..r * n + tile.j1];
            for (cv, &acc) in crow.iter_mut().zip(accs.iter()) {
                if acc != 0 {
                    *cv += (acc as f64 * scale) as f32;
                }
            }
        }
    }

    /// The one tile walk behind every entry point, in the float
    /// engine's walk order: each tile's B block either quantized on the
    /// fly ([`BTiles::Raw`]) or read from a prepared set
    /// ([`BTiles::Prepared`]), MAC'd serially or over `chunk_rows`-row C
    /// chunks. Byte-identical either way — each element's tile
    /// contributions are exact integers folded in ascending-`k` order.
    fn run(
        &self,
        a_blocks: &[BlockFp],
        b: BTiles<'_, BlockFp>,
        c: &mut [f32],
        k: usize,
        n: usize,
        chunk_rows: Option<usize>,
    ) {
        let nkb = k.div_ceil(self.tile_k);
        let mut buf = Vec::new();
        let mut accs = vec![0i64; self.tile_n.min(n)];
        for (ti, tile) in tiles(k, n, self.tile_k, self.tile_n).enumerate() {
            let owned;
            let b_tile = match b {
                BTiles::Raw(raw) => {
                    owned = self.gather_tile(raw, n, tile, &mut buf);
                    &owned
                }
                BTiles::Prepared(tiles) => &tiles[ti],
            };
            match chunk_rows {
                None => self.mac_rows(a_blocks, nkb, 0, b_tile, c, n, tile, &mut accs),
                Some(cr) => c.par_chunks_mut(cr * n).enumerate().for_each(|(ci, cpanel)| {
                    let mut accs = vec![0i64; tile.j1 - tile.j0];
                    self.mac_rows(a_blocks, nkb, ci * cr, b_tile, cpanel, n, tile, &mut accs);
                }),
            }
        }
    }

    /// `C += Â·B̂` through the tiled engine. Small problems (under ~16k
    /// MACs) or single-row problems run serially; larger ones split C
    /// row chunks across the persistent worker pool — with
    /// byte-identical results either way (each element's tile
    /// contributions are exact integers folded in ascending-`k` order).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape.
    pub fn execute(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        check_shapes(a, b, c, m, k, n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let a_blocks = BlockFp::quantize_rows(a, k, self.tile_k, self.man_width);
        self.run(&a_blocks, BTiles::Raw(b), c, k, n, par_chunk_rows(m, k, n));
    }

    /// The scalar semantic anchor: same per-`(row, k-tile)` /
    /// per-`tile_k × tile_n` quantization, same integer products, same
    /// per-tile scales — computed with plain nested loops, no tiling
    /// machinery, no prepared multiplicands, no threads. The engine must
    /// be bit-identical to this for every configuration, width and shape
    /// (enforced by `tests/blockfp_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape.
    pub fn reference(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        check_shapes(a, b, c, m, k, n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let nkb = k.div_ceil(self.tile_k);
        let njb = n.div_ceil(self.tile_n);
        let a_blocks = BlockFp::quantize_rows(a, k, self.tile_k, self.man_width);
        let mut b_tiles = Vec::with_capacity(nkb * njb);
        let mut buf = Vec::new();
        for l0 in (0..k).step_by(self.tile_k) {
            for j0 in (0..n).step_by(self.tile_n) {
                let tile =
                    Tile { l0, l1: (l0 + self.tile_k).min(k), j0, j1: (j0 + self.tile_n).min(n) };
                b_tiles.push(self.gather_tile(b, n, tile, &mut buf));
            }
        }
        let shift = self.shift_back();
        for i in 0..m {
            for j in 0..n {
                let jb = j / self.tile_n;
                let dj = j - jb * self.tile_n;
                let tw = self.tile_n.min(n - jb * self.tile_n);
                for lb in 0..nkb {
                    let ablock = &a_blocks[i * nkb + lb];
                    let btile = &b_tiles[lb * njb + jb];
                    let mut acc = 0i64;
                    for (dl, &x) in ablock.mantissas().iter().enumerate() {
                        if x == 0 {
                            continue;
                        }
                        let y = btile.mantissas()[dl * tw + dj];
                        if y == 0 {
                            continue;
                        }
                        let mag =
                            self.mult.multiply(x.unsigned_abs() as u64, y.unsigned_abs() as u64)
                                << shift;
                        acc += if (x < 0) ^ (y < 0) { -(mag as i64) } else { mag as i64 };
                    }
                    if acc != 0 {
                        let scale = self.tile_scale(ablock.shared_exp(), btile.shared_exp());
                        c[i * n + j] += (acc as f64 * scale) as f32;
                    }
                }
            }
        }
    }

    /// The paper's literal §IV-B mode: **one shared exponent per whole
    /// matrix** for A and for B (tile geometry ignored), serial. Kept as
    /// the accuracy baseline the per-tile engine is measured against —
    /// wide-dynamic-range operands lose most of their small elements
    /// here — and as the bit-compatibility anchor for `m == 1` problems
    /// with matrix-spanning tiles, where the two granularities coincide.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the shape, or if `k` is deep
    /// enough that the whole-row integer accumulation could overflow
    /// `i64` (`k > 2^(65 - 2·man_width)`).
    pub fn execute_whole_matrix(
        &self,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        check_shapes(a, b, c, m, k, n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        assert!(
            k <= 1usize << (65 - 2 * self.man_width).min(63),
            "k {k} too deep for exact i64 accumulation at man_width {}",
            self.man_width
        );
        let block_a = BlockFp::quantize(a, self.man_width);
        let block_b = BlockFp::quantize(b, self.man_width);
        let scale = self.tile_scale(block_a.shared_exp(), block_b.shared_exp());
        let shift = self.shift_back();
        let (ma, mb) = (block_a.mantissas(), block_b.mantissas());
        let mut accs = vec![0i64; n];
        for i in 0..m {
            accs.fill(0);
            for l in 0..k {
                let x = ma[i * k + l];
                if x == 0 {
                    continue; // zero bypass
                }
                let sx = (x >> 31) as i64;
                let prep = self.mult.prepare(x.unsigned_abs() as u64);
                lane_mac(&self.mult, &prep, &mb[l * n..(l + 1) * n], sx, shift, &mut accs);
            }
            for (cv, &acc) in c[i * n..(i + 1) * n].iter_mut().zip(accs.iter()) {
                if acc != 0 {
                    *cv += (acc as f64 * scale) as f32;
                }
            }
        }
    }
}

/// The report name, e.g. `"blockfp12/PC3_tr"`.
impl fmt::Display for BlockFpGemm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blockfp{}/{}", self.man_width, self.mult.config())
    }
}

/// The BlockFp engine as a GEMM backend: a stored A is quantized per
/// `(row, k-tile)` block (the `Conv2d` serving pattern: the kernel
/// matrix multiplies from the left), a stored B per `tile_k × tile_n`
/// tile in walk order (the `Dense` pattern: `Wᵀ` multiplies from the
/// right). Both replay [`execute`](BlockFpGemm::execute)'s walk with
/// that side's quantization already done — byte-identical, same thread
/// gate.
impl GemmBackend for BlockFpGemm {
    fn gemm(&self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        self.execute(a, b, c, m, k, n);
    }

    fn prepare_a(&self, a: &[f32], m: usize, k: usize) -> PreparedA {
        assert_eq!(a.len(), m * k, "A has wrong length");
        let blocks = BlockFp::quantize_rows(a, k, self.tile_k, self.man_width);
        PreparedA { m, k, stored: StoredA::BlockFp { blocks, geometry: self.geometry_a() } }
    }

    fn prepare_b(&self, b: &[f32], k: usize, n: usize) -> PreparedB {
        assert_eq!(b.len(), k * n, "B has wrong length");
        let mut buf = Vec::new();
        let tiles = tiles(k, n, self.tile_k, self.tile_n)
            .map(|tile| self.gather_tile(b, n, tile, &mut buf))
            .collect();
        PreparedB { k, n, stored: StoredB::BlockFp { tiles, geometry: self.geometry_b() } }
    }

    fn gemm_prepared_a(&self, a: &PreparedA, b: &[f32], c: &mut [f32], n: usize) {
        let StoredA::BlockFp { blocks, geometry } = &a.stored else {
            panic!("prepared A was made by a scalar backend; {self} cannot consume it");
        };
        assert_eq!(*geometry, self.geometry_a(), "prepared A geometry does not match this engine");
        let (m, k) = (a.m, a.k);
        assert_eq!(b.len(), k * n, "B has wrong length");
        assert_eq!(c.len(), m * n, "C has wrong length");
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        self.run(blocks, BTiles::Raw(b), c, k, n, par_chunk_rows(m, k, n));
    }

    fn gemm_prepared_b(&self, a: &[f32], b: &PreparedB, c: &mut [f32], m: usize) {
        let StoredB::BlockFp { tiles, geometry } = &b.stored else {
            panic!("prepared B was made by a scalar backend; {self} cannot consume it");
        };
        assert_eq!(*geometry, self.geometry_b(), "prepared B geometry does not match this engine");
        let (k, n) = (b.k, b.n);
        assert_eq!(a.len(), m * k, "A has wrong length");
        assert_eq!(c.len(), m * n, "C has wrong length");
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let a_blocks = BlockFp::quantize_rows(a, k, self.tile_k, self.man_width);
        self.run(&a_blocks, BTiles::Prepared(tiles), c, k, n, par_chunk_rows(m, k, n));
    }

    fn couples_b_columns(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApproxFpMul, ExactMul, MultiplierConfig, QuantizedExactMul};
    use daism_num::FpFormat;

    fn test_matrix(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                if h.is_multiple_of(9) {
                    0.0 // exercise the zero-bypass path
                } else {
                    ((h % 2000) as f32 - 1000.0) / 250.0
                }
            })
            .collect()
    }

    fn assert_bit_identical(mul: &dyn ScalarMul, m: usize, k: usize, n: usize) {
        let a = test_matrix(m * k, 1);
        let b = test_matrix(k * n, 2);
        let mut reference = vec![0.0f32; m * n];
        let mut engine = vec![0.0f32; m * n];
        gemm_reference(mul, &a, &b, &mut reference, m, k, n);
        gemm(mul, &a, &b, &mut engine, m, k, n);
        for (i, (r, t)) in reference.iter().zip(&engine).enumerate() {
            assert_eq!(
                r.to_bits(),
                t.to_bits(),
                "{}: {m}x{k}x{n} element {i}: {r} vs {t}",
                mul.name()
            );
        }
    }

    #[test]
    fn engine_matches_reference_small_and_parallel_sizes() {
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (33, 17, 9), (70, 40, 48)] {
            assert_bit_identical(&ExactMul, m, k, n);
            assert_bit_identical(&QuantizedExactMul::new(FpFormat::BF16), m, k, n);
            assert_bit_identical(&pc3, m, k, n);
        }
    }

    #[test]
    fn exact_gemm_matches_manual() {
        let a = [1.0, 0.0, 2.0, -1.0, 3.0, 1.0]; // 2x3
        let b = [2.0, 1.0, 0.0, -1.0, 1.0, 2.0]; // 3x2
        let mut c = [0.0f32; 4];
        gemm(&ExactMul, &a, &b, &mut c, 2, 3, 2);
        // Row 0: [1,0,2]·cols -> (2+0+2, 1+0+4); row 1: [-1,3,1] ->
        // (-2+0+1, -1-3+2).
        assert_eq!(c, [4.0, 5.0, -1.0, -2.0]);
    }

    #[test]
    fn fast_path_equals_slow_path_for_exact() {
        // ExactMul takes the native-f32 forms (fused / packed);
        // QuantizedExactMul at FP32 is semantically f32-exact but takes
        // the decoded-tile form. Both must land on the same bits, below and
        // above the microkernel gate.
        let slow = QuantizedExactMul::new(FpFormat::FP32);
        for &(m, k, n) in &[(3, 4, 5), (33, 17, 9)] {
            let a = test_matrix(m * k, 7);
            let b = test_matrix(k * n, 8);
            let mut fast_c = vec![0.0f32; m * n];
            let mut slow_c = vec![0.0f32; m * n];
            gemm(&ExactMul, &a, &b, &mut fast_c, m, k, n);
            gemm(&slow, &a, &b, &mut slow_c, m, k, n);
            for (f, s) in fast_c.iter().zip(&slow_c) {
                assert_eq!(f.to_bits(), s.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn approx_gemm_underestimates() {
        let mul = ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::BF16);
        let a = vec![1.3f32; 16];
        let b = vec![1.7f32; 16];
        let mut approx = vec![0.0f32; 16];
        let mut exact = vec![0.0f32; 16];
        gemm(&mul, &a, &b, &mut approx, 4, 4, 4);
        gemm(&ExactMul, &a, &b, &mut exact, 4, 4, 4);
        for (ap, ex) in approx.iter().zip(&exact) {
            assert!(ap <= ex);
            assert!(*ap > 0.5 * ex);
        }
    }

    #[test]
    fn degenerate_shapes_are_noops() {
        let mut c = [7.0f32];
        gemm(&ExactMul, &[], &[], &mut c, 1, 0, 1);
        assert_eq!(c[0], 7.0);
        let mut empty: [f32; 0] = [];
        gemm(&ExactMul, &[], &[], &mut empty, 0, 2, 0);
        gemm(&ExactMul, &[], &[], &mut empty, 0, 0, 0);
    }

    #[test]
    fn accumulates_into_existing_c() {
        let mut c = [10.0f32];
        gemm(&ExactMul, &[2.0], &[3.0], &mut c, 1, 1, 1);
        assert_eq!(c[0], 16.0);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn shape_mismatch_panics() {
        let mut c = [0.0f32; 1];
        gemm(&ExactMul, &[1.0, 2.0], &[1.0], &mut c, 1, 1, 1);
    }

    #[test]
    fn blocking_crosses_kc_and_nc_boundaries() {
        // Shapes straddling the KC/NC block edges must still accumulate
        // in ascending-k order per element.
        let mul = ApproxFpMul::new(MultiplierConfig::PC2_TR, FpFormat::BF16);
        assert_bit_identical(&mul, 2, KC + 3, 5);
        assert_bit_identical(&ExactMul, 2, 3, NC + 9);
        assert_bit_identical(&mul, 2, 3, NC + 9);
    }

    #[test]
    fn parallel_path_engages_above_gate() {
        // 64x32x32 = 65536 MACs clears PAR_MIN_MACS with m > 1: the
        // decoded (approx) and packed (exact) forms run chunked — when
        // `current_num_threads() > 1`; on a 1-core host `gemm` runs the
        // walk unsplit instead, and the direct walk test below keeps the
        // chunked code covered regardless.
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        assert_bit_identical(&mul, 64, 32, 32);
        assert_bit_identical(&ExactMul, 64, 32, 32);
        // And a shape whose rows don't divide evenly by the chunk size.
        assert_bit_identical(&mul, 37, 24, 40);
    }

    #[test]
    fn parallel_kernels_bit_match_reference_even_single_core() {
        // Drive the one walk directly, below `gemm`'s thread gate, in
        // every B form — raw, and decoded or packed tiles built per call
        // or prepared up front: on a 1-core host `run_batch` degrades to
        // an inline loop, but the chunk indexing under test still
        // executes, so a slab slicing bug cannot hide behind the gate.
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let muls: [&dyn ScalarMul; 2] = [&pc3, &ExactMul];
        for &(m, k, n) in &[(5, 9, 11), (64, 32, 32), (37, 24, 40), (3, KC + 3, 17)] {
            let a = test_matrix(m * k, 1);
            let b = test_matrix(k * n, 2);
            for mul in muls {
                let mut reference = vec![0.0f32; m * n];
                gemm_reference(mul, &a, &b, &mut reference, m, k, n);
                let prepared = mul.prepare_b(&b, k, n);
                let forms = match &prepared.stored {
                    StoredB::Packed(blocks) => [
                        ("packed", BForm::Packed(BTiles::Raw(&b))),
                        ("prepared packed", BForm::Packed(BTiles::Prepared(blocks))),
                    ],
                    StoredB::Tiles(tiles) => [
                        ("tiles", BForm::Tiles(BTiles::Raw(&b))),
                        ("prepared tiles", BForm::Tiles(BTiles::Prepared(tiles))),
                    ],
                    _ => panic!("{} has a tile form", mul.name()),
                };
                // No split, and chunk sizes that divide m, don't divide
                // m, and exceed it.
                for (form_name, form) in [("raw", BForm::Raw(&b))].into_iter().chain(forms) {
                    for chunk_rows in [None, Some(1), Some(3), Some(MC), Some(m + 1)] {
                        let mut c = vec![0.0f32; m * n];
                        run(mul, &a, form, &mut c, k, n, chunk_rows);
                        for (i, (r, t)) in reference.iter().zip(&c).enumerate() {
                            assert_eq!(
                                r.to_bits(),
                                t.to_bits(),
                                "{}: {form_name} {m}x{k}x{n} chunk {chunk_rows:?} elem {i}",
                                mul.name()
                            );
                        }
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // GemmBackend::{prepare_b, gemm_prepared_b} on scalar multipliers
    // ---------------------------------------------------------------

    fn assert_prepared_b_matches_gemm(mul: &dyn ScalarMul, m: usize, k: usize, n: usize) {
        let a = test_matrix(m * k, 5);
        let b = test_matrix(k * n, 6);
        let prepared = mul.prepare_b(&b, k, n);
        assert_eq!(prepared.k(), k);
        assert_eq!(prepared.n(), n);
        let mut eager = vec![0.0f32; m * n];
        gemm(mul, &a, &b, &mut eager, m, k, n);
        let mut served = vec![0.0f32; m * n];
        mul.gemm_prepared_b(&a, &prepared, &mut served, m);
        for (i, r) in eager.iter().enumerate() {
            assert_eq!(
                r.to_bits(),
                served[i].to_bits(),
                "{}: {m}x{k}x{n} elem {i}: eager {r} vs prepared {}",
                mul.name(),
                served[i]
            );
        }
    }

    #[test]
    fn prepared_b_bit_matches_gemm_for_every_backend_class() {
        // One backend per scalar stored-B form: packed (native f32),
        // decoded tiles, fused (raw fallback — an exotic format
        // ApproxFpMul keeps the FpScalar path).
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let quant = QuantizedExactMul::new(FpFormat::BF16);
        // e11m9: exponent range beyond f32's, so the fast-f32 tile
        // decode is off and the stored B keeps the raw fused fallback.
        let exotic = ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::new(11, 9).unwrap());
        let muls: [&dyn ScalarMul; 4] = [&ExactMul, &pc3, &quant, &exotic];
        for mul in muls {
            for &(m, k, n) in &[(1, 7, 9), (3, 5, 7), (33, 17, 9), (64, 32, 32)] {
                assert_prepared_b_matches_gemm(mul, m, k, n);
            }
        }
    }

    #[test]
    fn prepared_b_serves_the_m_equals_1_case() {
        // Regression for the m > 1 prepared gate in `gemm`: a persistent
        // tile must serve single-sample requests bit-identically to the
        // eager engine (which routes m == 1 to the fused path).
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let quant = QuantizedExactMul::new(FpFormat::BF16);
        let muls: [&dyn ScalarMul; 3] = [&ExactMul, &pc3, &quant];
        for mul in muls {
            for &(k, n) in &[(1, 1), (5, 9), (KC + 3, 5), (3, NC + 9), (64, 64)] {
                assert_prepared_b_matches_gemm(mul, 1, k, n);
            }
        }
    }

    #[test]
    fn prepared_b_crosses_tile_boundaries() {
        let pc3 = ApproxFpMul::new(MultiplierConfig::PC2_TR, FpFormat::BF16);
        assert_prepared_b_matches_gemm(&pc3, 2, KC + 3, 5);
        assert_prepared_b_matches_gemm(&pc3, 2, 3, NC + 9);
        assert_prepared_b_matches_gemm(&ExactMul, 2, KC + 3, NC + 9);
    }

    #[test]
    fn prepared_b_degenerate_shapes_are_noops() {
        let mut c = [7.0f32];
        let empty = ExactMul.prepare_b(&[], 0, 1);
        ExactMul.gemm_prepared_b(&[], &empty, &mut c, 1);
        assert_eq!(c[0], 7.0);
    }

    #[test]
    fn prepared_b_panels_are_reusable_across_calls() {
        // The whole point: one prepare, many requests — later requests
        // must not observe state left by earlier ones.
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let (k, n) = (24usize, 40usize);
        let b = test_matrix(k * n, 8);
        let prepared = mul.prepare_b(&b, k, n);
        for seed in 0..4 {
            let a = test_matrix(k, 100 + seed);
            let mut eager = vec![0.0f32; n];
            gemm(&mul, &a, &b, &mut eager, 1, k, n);
            let mut served = vec![0.0f32; n];
            mul.gemm_prepared_b(&a, &prepared, &mut served, 1);
            for (r, s) in eager.iter().zip(&served) {
                assert_eq!(r.to_bits(), s.to_bits(), "request {seed} diverged");
            }
        }
    }

    #[test]
    fn foreign_panel_prepared_b_falls_back_correctly() {
        // Tiles prepared by one tile-decoding backend served through
        // another (another decoded form, or the same form in another
        // format) must match the consumer's own eager semantics: the
        // consumer falls back to the tile's raw rows. Sizes straddle the
        // lane group width, and zero-heavy B rows keep few lanes.
        let quant = QuantizedExactMul::new(FpFormat::BF16);
        let bf16 = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let fp16 = ApproxFpMul::new(MultiplierConfig::FLA, FpFormat::FP16);
        let pairs: [(&dyn ScalarMul, &dyn ScalarMul); 4] =
            [(&quant, &bf16), (&bf16, &quant), (&fp16, &bf16), (&bf16, &fp16)];
        for (preparer, consumer) in pairs {
            for &(m, k, n) in &[(3usize, 5, 7), (4, 9, 21)] {
                let a = test_matrix(m * k, 1);
                let b: Vec<f32> = test_matrix(k * n, 2)
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| if i % 3 == 0 { v } else { 0.0 })
                    .collect();
                let prepared = preparer.prepare_b(&b, k, n);
                assert!(matches!(prepared.stored, StoredB::Tiles(_)));
                let mut eager = vec![0.0f32; m * n];
                gemm(consumer, &a, &b, &mut eager, m, k, n);
                let mut served = vec![0.0f32; m * n];
                consumer.gemm_prepared_b(&a, &prepared, &mut served, m);
                for (r, s) in eager.iter().zip(&served) {
                    assert_eq!(
                        r.to_bits(),
                        s.to_bits(),
                        "tiles from {} into {} diverged",
                        preparer.name(),
                        consumer.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "native-f32")]
    fn packed_prepared_b_rejects_non_native_consumer() {
        let b = test_matrix(4, 2);
        let prepared = ExactMul.prepare_b(&b, 2, 2);
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16);
        let mut c = [0.0f32; 2];
        mul.gemm_prepared_b(&[1.0, 2.0], &prepared, &mut c, 1);
    }

    // ---------------------------------------------------------------
    // BlockFpGemm
    // ---------------------------------------------------------------

    /// [`BlockFpGemm::execute`]'s walk forced onto `chunk_rows`-row C
    /// chunks, bypassing its thread gate.
    fn blockfp_chunked(
        engine: &BlockFpGemm,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        k: usize,
        n: usize,
        chunk_rows: usize,
    ) {
        let a_blocks = BlockFp::quantize_rows(a, k, engine.tile_k, engine.man_width);
        engine.run(&a_blocks, BTiles::Raw(b), c, k, n, Some(chunk_rows));
    }

    #[test]
    fn blockfp_engine_matches_scalar_reference() {
        // Every configuration across the width range and several tile
        // geometries, with the walk also forced onto C row chunks that
        // divide m, don't divide it, and exceed it.
        for config in MultiplierConfig::ALL {
            for (width, tile_k, tile_n) in [(12, 3, 4), (5, 1, 1), (25, 2, 3), (9, KC, NC)] {
                let engine = BlockFpGemm::with_tiles(config, width, tile_k, tile_n);
                for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 3, 4), (6, 8, 9)] {
                    let a = test_matrix(m * k, 11);
                    let b = test_matrix(k * n, 12);
                    let mut reference = vec![0.0f32; m * n];
                    let mut tiled = vec![0.0f32; m * n];
                    engine.reference(&a, &b, &mut reference, m, k, n);
                    engine.execute(&a, &b, &mut tiled, m, k, n);
                    for (i, (r, t)) in reference.iter().zip(&tiled).enumerate() {
                        assert_eq!(
                            r.to_bits(),
                            t.to_bits(),
                            "{} {m}x{k}x{n} elem {i}",
                            engine.name()
                        );
                    }
                    for chunk_rows in [1, 2, m, m + 3] {
                        let mut chunked = vec![0.0f32; m * n];
                        blockfp_chunked(&engine, &a, &b, &mut chunked, k, n, chunk_rows);
                        for (i, (r, t)) in reference.iter().zip(&chunked).enumerate() {
                            assert_eq!(
                                r.to_bits(),
                                t.to_bits(),
                                "{} {m}x{k}x{n} chunk {chunk_rows} elem {i}",
                                engine.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The determinism guarantee (same as the float engine): output is
    /// **byte-identical** across repeated runs and across every C
    /// row-chunk size. Thread count influences the walk *only* through
    /// `chunk_rows` (`execute` derives it from `current_num_threads`),
    /// so sweeping `chunk_rows` covers `RAYON_NUM_THREADS=1/4/…` even on
    /// a single-core host — where the pool inlines the batch but the
    /// same chunk indexing executes.
    #[test]
    fn blockfp_output_byte_identical_across_chunk_sizes_and_repeats() {
        for (m, k, n, tile_k, tile_n) in [(64usize, 48usize, 40usize, 16, 32), (37, 24, 40, 7, 13)]
        {
            let a = test_matrix(m * k, 1);
            let b = test_matrix(k * n, 2);
            for config in [MultiplierConfig::PC3_TR, MultiplierConfig::FLA] {
                let engine = BlockFpGemm::with_tiles(config, 9, tile_k, tile_n);
                let run = |f: &dyn Fn(&mut [f32])| {
                    let mut c = vec![0.0f32; m * n];
                    f(&mut c);
                    c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                };
                let golden = run(&|c| engine.reference(&a, &b, c, m, k, n));
                // `execute` twice: above the 16k-MAC gate for the first
                // shape, below the row gate for neither — repeats must
                // agree.
                let first = run(&|c| engine.execute(&a, &b, c, m, k, n));
                let second = run(&|c| engine.execute(&a, &b, c, m, k, n));
                assert_eq!(first, golden, "{}: engine diverged from reference", engine.name());
                assert_eq!(first, second, "{}: repeated runs diverged", engine.name());
                for chunk_rows in [1usize, 3, 32, m, m + 1] {
                    let chunked = run(&|c| blockfp_chunked(&engine, &a, &b, c, k, n, chunk_rows));
                    assert_eq!(
                        chunked,
                        golden,
                        "{}: chunk_rows {} diverged — scheduling leaked into results",
                        engine.name(),
                        chunk_rows
                    );
                }
            }
        }
    }

    #[test]
    fn blockfp_close_to_exact_at_high_width() {
        let (m, k, n) = (4usize, 6, 5);
        let a = test_matrix(m * k, 3);
        let b = test_matrix(k * n, 4);
        let mut exact = vec![0.0f32; m * n];
        gemm(&ExactMul, &a, &b, &mut exact, m, k, n);
        let scale: f32 = exact.iter().map(|v| v.abs()).fold(0.0, f32::max);
        // Full-width products, and truncated ones rescaled back to the
        // full product scale.
        for (config, tol) in [(MultiplierConfig::PC3, 0.12), (MultiplierConfig::PC3_TR, 0.15)] {
            let mut bfp = vec![0.0f32; m * n];
            BlockFpGemm::new(config, 16).execute(&a, &b, &mut bfp, m, k, n);
            for (e, c) in exact.iter().zip(&bfp) {
                assert!((e - c).abs() < tol * scale + 0.02, "{config}: {e} vs {c}");
            }
        }
        // The Table I error ladder survives the integer datapath: PC3's
        // extra carry lines beat FLA at a serving width.
        let err = |config| {
            let mut c = vec![0.0f32; m * n];
            BlockFpGemm::new(config, 12).execute(&a, &b, &mut c, m, k, n);
            exact.iter().zip(&c).map(|(e, v)| (e - v).abs() as f64).sum::<f64>()
        };
        let (fla, pc3) = (err(MultiplierConfig::FLA), err(MultiplierConfig::PC3));
        assert!(pc3 < fla, "PC3 {pc3} !< FLA {fla}");
    }

    #[test]
    fn blockfp_accumulates_into_existing_c() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC3, 16);
        let mut c = [10.0f32];
        engine.execute(&[2.0], &[3.0], &mut c, 1, 1, 1);
        assert!((c[0] - 16.0).abs() < 0.05, "{}", c[0]);
    }

    #[test]
    fn blockfp_degenerate_shapes_are_noops() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC2, 8);
        let mut c = [7.0f32];
        engine.execute(&[], &[], &mut c, 1, 0, 1);
        engine.reference(&[], &[], &mut c, 1, 0, 1);
        engine.execute_whole_matrix(&[], &[], &mut c, 1, 0, 1);
        assert_eq!(c[0], 7.0);
        let mut empty: [f32; 0] = [];
        engine.execute(&[], &[], &mut empty, 0, 3, 0);
    }

    #[test]
    fn blockfp_zero_matrices_give_zero() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC2, 12);
        let a = vec![0f32; 6];
        let b = vec![0f32; 6];
        let mut c = vec![0f32; 4];
        engine.execute(&a, &b, &mut c, 2, 3, 2);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn blockfp_whole_matrix_matches_engine_for_single_row_spanning_tiles() {
        // m == 1 with matrix-spanning tiles: per-row A quantization is
        // whole-matrix A quantization, and the single B tile is the
        // whole B matrix — so the two modes must agree bit for bit.
        let (k, n) = (9usize, 7);
        let a = test_matrix(k, 21);
        let b = test_matrix(k * n, 22);
        for config in MultiplierConfig::ALL {
            let engine = BlockFpGemm::with_tiles(config, 11, k, n);
            let mut tiled = vec![0.0f32; n];
            let mut whole = vec![0.0f32; n];
            engine.execute(&a, &b, &mut tiled, 1, k, n);
            engine.execute_whole_matrix(&a, &b, &mut whole, 1, k, n);
            for (t, w) in tiled.iter().zip(&whole) {
                assert_eq!(t.to_bits(), w.to_bits(), "{config}: {t} vs {w}");
            }
        }
    }

    #[test]
    fn blockfp_prepared_operands_bit_match_execute() {
        // Both prepared entry points must equal the eager engine bit for
        // bit — across shapes that straddle tile boundaries, including
        // the single-row serving case.
        let engine = BlockFpGemm::with_tiles(MultiplierConfig::PC3_TR, 12, 3, 4);
        for &(m, k, n) in &[(1, 1, 1), (1, 7, 9), (3, 5, 7), (6, 8, 9), (33, 17, 9)] {
            let a = test_matrix(m * k, 31);
            let b = test_matrix(k * n, 32);
            let mut eager = vec![0.0f32; m * n];
            engine.execute(&a, &b, &mut eager, m, k, n);
            let bp = engine.prepare_b(&b, k, n);
            assert_eq!((bp.k(), bp.n()), (k, n));
            let mut served_b = vec![0.0f32; m * n];
            engine.gemm_prepared_b(&a, &bp, &mut served_b, m);
            let ap = engine.prepare_a(&a, m, k);
            let mut served_a = vec![0.0f32; m * n];
            engine.gemm_prepared_a(&ap, &b, &mut served_a, n);
            for (i, r) in eager.iter().enumerate() {
                assert_eq!(r.to_bits(), served_b[i].to_bits(), "{m}x{k}x{n} prepared-B elem {i}");
                assert_eq!(r.to_bits(), served_a[i].to_bits(), "{m}x{k}x{n} prepared-A elem {i}");
            }
        }
    }

    #[test]
    fn blockfp_prepared_b_reusable_across_requests() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC3_TR, 9);
        let (k, n) = (16usize, 12);
        let b = test_matrix(k * n, 41);
        let bp = engine.prepare_b(&b, k, n);
        for seed in 0..3 {
            let a = test_matrix(k, 50 + seed);
            let mut eager = vec![0.0f32; n];
            engine.execute(&a, &b, &mut eager, 1, k, n);
            let mut served = vec![0.0f32; n];
            engine.gemm_prepared_b(&a, &bp, &mut served, 1);
            for (r, s) in eager.iter().zip(&served) {
                assert_eq!(r.to_bits(), s.to_bits(), "request {seed} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "geometry does not match")]
    fn blockfp_prepared_b_rejects_mismatched_engine() {
        let coarse = BlockFpGemm::with_tiles(MultiplierConfig::PC3, 9, 4, 4);
        let fine = BlockFpGemm::with_tiles(MultiplierConfig::PC3, 9, 2, 4);
        let b = test_matrix(8, 1);
        let bp = coarse.prepare_b(&b, 4, 2);
        let mut c = [0.0f32; 2];
        fine.gemm_prepared_b(&[1.0; 4], &bp, &mut c, 1);
    }

    #[test]
    #[should_panic(expected = "cannot consume it")]
    fn prepared_a_rejects_the_other_backend_class() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC3, 9);
        let a = test_matrix(4, 1);
        let mut c = [0.0f32; 2];
        ExactMul.gemm_prepared_a(&engine.prepare_a(&a, 2, 2), &[1.0, 2.0], &mut c, 1);
    }

    #[test]
    #[should_panic(expected = "cannot consume it")]
    fn prepared_b_rejects_the_other_backend_class() {
        let engine = BlockFpGemm::new(MultiplierConfig::PC3, 9);
        let b = test_matrix(4, 1);
        let mut c = [0.0f32; 2];
        engine.gemm_prepared_b(&[1.0, 2.0], &ExactMul.prepare_b(&b, 2, 2), &mut c, 1);
    }

    #[test]
    fn blockfp_name_and_accessors() {
        let engine = BlockFpGemm::with_tiles(MultiplierConfig::PC3_TR, 12, 16, 32);
        assert_eq!(engine.name(), "blockfp12/PC3_tr");
        assert_eq!(engine.man_width(), 12);
        assert_eq!(engine.config(), MultiplierConfig::PC3_TR);
        assert_eq!(engine.tile_k(), 16);
        assert_eq!(engine.tile_n(), 32);
        let default = BlockFpGemm::new(MultiplierConfig::FLA, 8);
        assert_eq!(default.tile_k(), KC);
        assert_eq!(default.tile_n(), NC);
    }

    #[test]
    #[should_panic(expected = "outside 5..=25")]
    fn blockfp_rejects_tiny_width() {
        let _ = BlockFpGemm::new(MultiplierConfig::FLA, 4);
    }

    #[test]
    #[should_panic(expected = "too deep for exact i64 accumulation")]
    fn blockfp_rejects_overflowing_tile_depth() {
        let _ = BlockFpGemm::with_tiles(MultiplierConfig::PC3, 25, 1 << 16, NC);
    }
}

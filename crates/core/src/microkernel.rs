//! BLIS-style packed microkernel for the exact native-`f32` backend.
//!
//! The fused [`mul_rows`](crate::ScalarMul::mul_rows) loop is
//! memory-bound: every (A-element, B-row) pair re-reads and re-writes a
//! whole C row, so the compiler's autovectorized multiply–add never gets
//! past ~40% of machine peak, and cache-blocking it alone measured
//! *slower* than the naive reference.
//! This module restructures the exact kernel the way BLIS does:
//!
//! 1. **Packing** — each `KC × NC` tile of B is copied once into
//!    `NR`-major panels ([`pack_b`], per call by [`gemm`](crate::gemm)
//!    or once per weight matrix by [`GemmBackend::prepare_b`](crate::GemmBackend::prepare_b))
//!    and each `MC × KC` block of A into `MR`-major panels, so the
//!    register kernel streams both operands contiguously;
//! 2. **Register tiling** — an `MR × NR` tile of C is held in
//!    registers across the whole `KC` depth, cutting C traffic by
//!    `MR·NR` loads/stores per tile instead of per MAC;
//! 3. **Lane arrays** — the portable kernel is written over fixed
//!    `[f32; 8]` lanes that stable `rustc` autovectorizes; an optional
//!    `core::arch::x86_64` AVX2 kernel (feature `simd`, on by default)
//!    is selected by **runtime** feature detection and processes the
//!    same lanes at 256-bit width.
//!
//! # Bit-exactness
//!
//! Both kernels are bit-identical to [`gemm_reference`] with
//! [`ExactMul`](crate::ExactMul): per C element the products accumulate
//! in ascending-`k` order starting from the incoming C value, each as a
//! separate IEEE multiply **then** add. The AVX2 path deliberately uses
//! `vmulps` + `vaddps` rather than a fused multiply–add — FMA's single
//! rounding would diverge from the scalar reference's two roundings —
//! so the detected and portable paths are byte-identical (asserted by
//! the differential suite, and by CI's no-`simd` build).
//!
//! Zero A-elements are skipped exactly as the reference loop skips
//! them; zero B-elements multiply through, exactly as the native
//! backend's branchless row kernel does.
//!
//! [`gemm_reference`]: crate::gemm_reference

use crate::gemm::{tiles, Tile, KC, NC};

/// Register-tile rows: C rows held live per microkernel call.
const MR: usize = 4;
/// Register-tile columns: two 8-wide lanes.
const NR: usize = 16;
/// Rows of A packed (and C computed) per inner block.
const MC: usize = 64;

/// Returns `true` when the runtime-detected AVX2 register kernel is
/// compiled in *and* the host supports it.
#[inline]
pub(crate) fn avx2_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// The portable `MR × NR` register kernel: `ct` arrives pre-loaded with
/// the C tile and leaves holding `ct + Ap·Bp` accumulated in
/// ascending-`k` order. `ap` is `kc × MR` (row-minor), `bp` is
/// `kc × NR` (column-minor). Written over fixed-width lanes so LLVM
/// autovectorizes on stable.
#[inline]
fn kernel_tile_portable(kc: usize, ap: &[f32], bp: &[f32], ct: &mut [[f32; NR]; MR]) {
    for l in 0..kc {
        let brow: &[f32; NR] = bp[l * NR..l * NR + NR].try_into().expect("packed B lane");
        let arow = &ap[l * MR..l * MR + MR];
        for (acc, &av) in ct.iter_mut().zip(arow) {
            if av != 0.0 {
                // Zero bypass on A, exactly as the reference loop; B
                // zeros multiply through (native-f32 semantics).
                for (cv, bv) in acc.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    //! The runtime-gated AVX2 register kernel. The only `unsafe` in the
    //! crate: `core::arch` intrinsics plus the `target_feature` call
    //! contract, discharged by [`super::avx2_available`] before every
    //! call. All memory access stays through checked slices.
    use super::{MR, NR};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };

    /// Same contract as [`super::kernel_tile_portable`], 256-bit lanes.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn kernel_tile(kc: usize, ap: &[f32], bp: &[f32], ct: &mut [[f32; NR]; MR]) {
        // SAFETY: every pointer below is derived from an in-bounds
        // slice index of exactly 8 elements.
        unsafe {
            let mut acc = [[_mm256_set1_ps(0.0); 2]; MR];
            for (lanes, row) in acc.iter_mut().zip(ct.iter()) {
                lanes[0] = _mm256_loadu_ps(row[..8].as_ptr());
                lanes[1] = _mm256_loadu_ps(row[8..].as_ptr());
            }
            for l in 0..kc {
                let bl = &bp[l * NR..l * NR + NR];
                let b0 = _mm256_loadu_ps(bl[..8].as_ptr());
                let b1 = _mm256_loadu_ps(bl[8..].as_ptr());
                let arow = &ap[l * MR..l * MR + MR];
                for (lanes, &av) in acc.iter_mut().zip(arow) {
                    if av != 0.0 {
                        // Multiply then add — NOT vfmadd: the scalar
                        // reference rounds twice per MAC, and bit
                        // identity outranks the fused form's speed.
                        let va = _mm256_set1_ps(av);
                        lanes[0] = _mm256_add_ps(lanes[0], _mm256_mul_ps(va, b0));
                        lanes[1] = _mm256_add_ps(lanes[1], _mm256_mul_ps(va, b1));
                    }
                }
            }
            for (lanes, row) in acc.iter().zip(ct.iter_mut()) {
                store(lanes[0], &mut row[..8]);
                store(lanes[1], &mut row[8..]);
            }
        }
    }

    #[inline]
    unsafe fn store(v: __m256, dst: &mut [f32]) {
        debug_assert_eq!(dst.len(), 8);
        // SAFETY: `dst` is exactly 8 floats.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }
}

/// The fringe kernel for partial tiles (`mr ≤ MR`, `nr ≤ NR`): same
/// packed layouts at their true strides, same accumulation order. Used
/// identically by the portable and detected paths, so edge columns and
/// rows can never diverge between them.
fn kernel_fringe(
    kc: usize,
    mr: usize,
    nr: usize,
    ap: &[f32],
    bp: &[f32],
    ct: &mut [[f32; NR]; MR],
) {
    for l in 0..kc {
        let brow = &bp[l * nr..(l + 1) * nr];
        let arow = &ap[l * mr..(l + 1) * mr];
        for (acc, &av) in ct.iter_mut().zip(arow) {
            if av != 0.0 {
                for (cv, bv) in acc.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// One `KC × NC` tile of B packed into `NR`-major panels: full panels
/// at stride `NR`, one trailing fringe panel at its true width.
#[derive(Debug, Clone)]
pub(crate) struct PackedBBlock {
    tile: Tile,
    data: Vec<f32>,
}

/// Packs the `tile` block of the row-major `k × n` matrix `b`.
pub(crate) fn pack_b(b: &[f32], n: usize, tile: Tile) -> PackedBBlock {
    let (l0, j0) = (tile.l0, tile.j0);
    let (kc, jw) = (tile.l1 - l0, tile.j1 - j0);
    let mut data = vec![0.0; kc * jw];
    let full = jw / NR;
    for jb in 0..full {
        let dst = &mut data[jb * kc * NR..(jb + 1) * kc * NR];
        for l in 0..kc {
            let src = j0 + jb * NR + (l0 + l) * n;
            dst[l * NR..(l + 1) * NR].copy_from_slice(&b[src..src + NR]);
        }
    }
    let nr = jw - full * NR;
    if nr > 0 {
        let dst = &mut data[full * kc * NR..];
        for l in 0..kc {
            let src = j0 + full * NR + (l0 + l) * n;
            dst[l * nr..(l + 1) * nr].copy_from_slice(&b[src..src + nr]);
        }
    }
    PackedBBlock { tile, data }
}

/// Packs the `mh`-tall, `kc`-deep block of A at `(i0, l0)` into
/// `MR`-major panels (trailing fringe at its true height).
fn pack_a(a: &[f32], k: usize, i0: usize, mh: usize, l0: usize, kc: usize, apack: &mut Vec<f32>) {
    apack.clear();
    apack.resize(mh * kc, 0.0);
    let full = mh / MR;
    for ib in 0..full {
        let dst = &mut apack[ib * kc * MR..(ib + 1) * kc * MR];
        for ii in 0..MR {
            let src = (i0 + ib * MR + ii) * k + l0;
            for l in 0..kc {
                dst[l * MR + ii] = a[src + l];
            }
        }
    }
    let mr = mh - full * MR;
    if mr > 0 {
        let dst = &mut apack[full * kc * MR..];
        for ii in 0..mr {
            let src = (i0 + full * MR + ii) * k + l0;
            for l in 0..kc {
                dst[l * mr + ii] = a[src + l];
            }
        }
    }
}

/// Runs the packed block: every `MR × NR` register tile of the
/// `mh × jw` C slab against the packed A/B panels. `use_avx2` selects
/// the register kernel for full tiles; fringes always run the shared
/// portable kernel.
// Out of line on purpose: inlined into its one caller, one-row packed
// serving (every tile through the fringe kernel) measured ~1.4× slower.
#[inline(never)]
#[allow(clippy::too_many_arguments)] // internal block seam: shape + packed operands
fn block_packed(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    n: usize,
    i0: usize,
    mh: usize,
    j0: usize,
    jw: usize,
    kc: usize,
    use_avx2: bool,
) {
    let mut ct = [[0.0f32; NR]; MR];
    for ib in 0..mh.div_ceil(MR) {
        let mr = MR.min(mh - ib * MR);
        let ap = &apack[ib * kc * MR..ib * kc * MR + kc * mr];
        for jb in 0..jw.div_ceil(NR) {
            let nr = NR.min(jw - jb * NR);
            let bp = &bpack[jb * kc * NR..jb * kc * NR + kc * nr];
            // Load the C tile, run the register kernel, store it back.
            for (ii, ctrow) in ct.iter_mut().take(mr).enumerate() {
                let row = (i0 + ib * MR + ii) * n + j0 + jb * NR;
                ctrow[..nr].copy_from_slice(&c[row..row + nr]);
            }
            if mr == MR && nr == NR {
                if use_avx2 {
                    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                    // SAFETY: `use_avx2` implies `avx2_available()`.
                    #[allow(unsafe_code)]
                    unsafe {
                        avx2::kernel_tile(kc, ap, bp, &mut ct)
                    };
                    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
                    kernel_tile_portable(kc, ap, bp, &mut ct);
                } else {
                    kernel_tile_portable(kc, ap, bp, &mut ct);
                }
            } else {
                kernel_fringe(kc, mr, nr, ap, bp, &mut ct);
            }
            for (ii, ctrow) in ct.iter().take(mr).enumerate() {
                let row = (i0 + ib * MR + ii) * n + j0 + jb * NR;
                c[row..row + nr].copy_from_slice(&ctrow[..nr]);
            }
        }
    }
}

/// Runs one packed B tile against the C rows in `c`, a `rows × n` slab
/// starting at row `row0` of the full `a`: A is packed `MC` rows at a
/// time and every full register tile runs the kernel `use_avx2`
/// selects. Bit-identical for any split of C into slabs.
pub(crate) fn packed_rows(
    a: &[f32],
    blk: &PackedBBlock,
    c: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    use_avx2: bool,
) {
    let Tile { l0, l1, j0, j1 } = blk.tile;
    let rows = c.len() / n;
    let mut apack = Vec::new();
    for i0 in (0..rows).step_by(MC) {
        let mh = MC.min(rows - i0);
        pack_a(a, k, row0 + i0, mh, l0, l1 - l0, &mut apack);
        block_packed(&apack, &blk.data, c, n, i0, mh, j0, j1 - j0, l1 - l0, use_avx2);
    }
}

/// `C += A·B` through the packed `f32` microkernel with the portable
/// lane kernel **forced**, ignoring runtime detection, serial.
/// Bit-identical to [`gemm_reference`](crate::gemm_reference) with
/// [`ExactMul`](crate::ExactMul). Exported so the differential suites
/// (and CI's no-`simd` build) can assert the detected path, which
/// [`gemm`](crate::gemm) and
/// [`GemmBackend::gemm_prepared_b`](crate::GemmBackend::gemm_prepared_b) dispatch to, is
/// byte-identical to it; prefer [`gemm`](crate::gemm) everywhere else.
///
/// # Panics
///
/// Panics if slice lengths do not match the shape.
pub fn gemm_f32_microkernel_portable(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert_eq!(c.len(), m * n, "C has wrong length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for tile in tiles(k, n, KC, NC) {
        packed_rows(a, &pack_b(b, n, tile), c, 0, k, n, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm_reference, ExactMul, GemmBackend};

    fn test_matrix(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                if h.is_multiple_of(9) {
                    0.0
                } else {
                    ((h % 2000) as f32 - 1000.0) / 250.0
                }
            })
            .collect()
    }

    /// The runtime-detected kernel at any `m`: packed-B serving packs
    /// for native-`f32` backends regardless of the eager size gates.
    fn detected(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        ExactMul.gemm_prepared_b(a, &ExactMul.prepare_b(b, k, n), c, m);
    }

    fn assert_matches_reference(m: usize, k: usize, n: usize) {
        let a = test_matrix(m * k, 1);
        let b = test_matrix(k * n, 2);
        let mut reference = vec![0.5f32; m * n];
        let mut detected_c = vec![0.5f32; m * n];
        let mut portable = vec![0.5f32; m * n];
        gemm_reference(&ExactMul, &a, &b, &mut reference, m, k, n);
        detected(&a, &b, &mut detected_c, m, k, n);
        gemm_f32_microkernel_portable(&a, &b, &mut portable, m, k, n);
        for (i, r) in reference.iter().enumerate() {
            assert_eq!(r.to_bits(), detected_c[i].to_bits(), "{m}x{k}x{n} elem {i} (detected)");
            assert_eq!(r.to_bits(), portable[i].to_bits(), "{m}x{k}x{n} elem {i} (portable)");
        }
    }

    #[test]
    fn microkernel_bit_matches_reference_across_remainders() {
        // Exact multiples of the register tile, every fringe class
        // (m % MR, n % NR, k % KC nonzero), single row/column, and
        // shapes crossing the MC/KC/NC block edges.
        for &(m, k, n) in &[
            (MR, 3, NR),
            (MR * 2, 17, NR * 2),
            (MR + 1, 5, NR + 3),
            (MR - 1, 9, NR - 5),
            (1, 7, 40),
            (7, 1, 9),
            (5, KC + 2, 11),
            (6, 9, NC + 13),
            (MC + 3, 31, 33),
        ] {
            assert_matches_reference(m, k, n);
        }
    }

    #[test]
    fn microkernel_accumulates_into_existing_c() {
        for kernel in [detected, gemm_f32_microkernel_portable] {
            let mut c = vec![10.0f32, -0.0];
            kernel(&[2.0], &[3.0, 0.0], &mut c, 1, 1, 2);
            assert_eq!(c[0], 16.0);
            // b == 0 multiplies through: -0.0 + 2.0*0.0 = +0.0 (native-f32
            // row semantics, same as ExactMul::mul_rows).
            assert_eq!(c[1].to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn microkernel_degenerate_shapes_are_noops() {
        for kernel in [detected, gemm_f32_microkernel_portable] {
            let mut c = [7.0f32];
            kernel(&[], &[], &mut c, 1, 0, 1);
            assert_eq!(c[0], 7.0);
            let mut empty: [f32; 0] = [];
            kernel(&[], &[], &mut empty, 0, 3, 0);
            kernel(&[], &[], &mut empty, 0, 0, 0);
        }
    }

    #[test]
    fn parallel_driver_bit_matches_serial_for_any_chunking() {
        // The row-slab seam the pool drives: every split of C into
        // `chunk_rows`-row slabs, each packing A from its own `row0`,
        // must reproduce the whole-C run bit for bit.
        for &(m, k, n) in &[(5, 9, 11), (37, 24, 40), (64, 32, 32), (MC + 3, KC + 2, 19)] {
            let a = test_matrix(m * k, 3);
            let b = test_matrix(k * n, 4);
            let blocks: Vec<PackedBBlock> = tiles(k, n, KC, NC).map(|t| pack_b(&b, n, t)).collect();
            let mut serial = vec![0.0f32; m * n];
            for blk in &blocks {
                packed_rows(&a, blk, &mut serial, 0, k, n, avx2_available());
            }
            for chunk_rows in [1, 3, 32, m + 1] {
                let mut par = vec![0.0f32; m * n];
                for blk in &blocks {
                    for (ci, slab) in par.chunks_mut(chunk_rows * n).enumerate() {
                        packed_rows(&a, blk, slab, ci * chunk_rows, k, n, avx2_available());
                    }
                }
                for (s, p) in serial.iter().zip(&par) {
                    assert_eq!(s.to_bits(), p.to_bits(), "{m}x{k}x{n} chunk {chunk_rows}");
                }
            }
        }
    }
}

//! Machine-readable GEMM perf trajectory, and the repo's one GEMM
//! bench: times the scalar reference and the auto-dispatched engine for
//! the exact-f32, bf16/PC3_tr (product-table path) and fp16/PC3_tr
//! (chunk-table path) backends — plus the
//! **block-floating-point** engine (whole-matrix baseline, scalar
//! reference, engine) — then writes `BENCH_gemm.json` so speedups are
//! tracked across changes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p daism-bench --bin bench_gemm_json            # 64³ + 256³
//! cargo run --release -p daism-bench --bin bench_gemm_json -- --quick # 16³ + 32³ (CI smoke)
//! cargo run --release -p daism-bench --bin bench_gemm_json -- --out path.json
//! ```
//!
//! Variants per float backend:
//!
//! * `reference` — the scalar loop, the semantic anchor;
//! * `parallel` — the engine ([`gemm`]): it picks a B form (packed
//!   register-tile `f32` blocks for `exact_f32`, decoded tiles that keep
//!   only the nonzero B lanes for the approximate backends) and splits C
//!   rows over the worker pool above its thread gate.
//!
//! For the blockfp backend `parallel` is [`BlockFpGemm::execute`], the
//! same walk with integer tile MACs.
//!
//! Besides the square sizes, bf16/PC3_tr and fp16/PC3_tr (the two
//! approximate backends perfbench's `cnn_serve` serves) are timed on the
//! six GEMMs of perfbench's CNN at batch 8 (conv1/conv2 forward, `grad_w` and
//! `grad_cols`), with seeded random zeros at the fractions measured on
//! its `train` workload. These shapes are narrow, and their streamed
//! operands are mostly zeros. Every row reports its zero fractions and
//! both `ns_per_mac` and `ns_per_nonzero_mac` (MACs whose A and B
//! operands are both nonzero — the ones the hardware does not gate).
//! The shape rows also carry `prepare_ns`, the median time of
//! [`GemmBackend::prepare_b`] on their B: the tile decode alone, which
//! `gemm` pays once per call. The top-level `tile_kernel` field names
//! the decoded-tile kernel the host ran ([`tile_kernel`]).
//!
//! A separate `products` array times the primitives under the GEMMs,
//! one row per primitive (`ns_per_op`):
//!
//! * `scalar_mul` — one [`ScalarMul::mul`] call, bf16 and fp16 PC3_tr;
//! * `mul_lanes` — one lane of [`MantissaMultiplier::mul_lanes`] over
//!   16-lane groups against a prepared multiplicand, at the bf16 (8-bit,
//!   product table) and fp16 (11-bit, chunk tables) mantissa widths;
//! * `read_or_group` — one [`SramBank::read_or_group`] multi-wordline
//!   OR read of a programmed 8 kB bank (8 lines per group).
//!
//! Each (size, backend, variant) cell reports the best and median of a
//! few timed repetitions (best-of filters scheduler noise; the median
//! shows spread). Derived speedups versus the reference are included
//! per cell so the JSON is self-describing.
//!
//! # Guards (CI gates, non-zero exit on violation)
//!
//! * **Dispatch guard**: at sizes ≥ 64³ and on the CNN shapes (full
//!   mode only) every non-`reference` row must
//!   measure `speedup_vs_reference ≥ 0.95` — the dispatch layer must
//!   never pick a variant that loses to the naive loop (the early
//!   exact-f32 regression stays fixed). Smaller smoke sizes are below
//!   timing resolution and are exempt. The JSON is written before the
//!   guard exits, so a failing run keeps its rows.
//! * **BlockFp validation**: before timing, the engine's output is
//!   checked — all-finite, no scale blowup against the exact f32 GEMM,
//!   byte-identical across repeats. (Byte-identity across C row-chunk
//!   sizes, the thread-count seam, is pinned by `daism-core`'s unit
//!   tests.)

use daism_core::{
    gemm, gemm_reference, tile_kernel, ApproxFpMul, BlockFpGemm, ExactMul, GemmBackend,
    MantissaMultiplier, MultiplierConfig, OperandMode, ScalarMul,
};
use daism_num::FpFormat;
use daism_sram::{BankGeometry, GroupLayout, SramBank};
use std::hint::black_box;
use std::time::Instant;

type GemmFn = fn(&dyn ScalarMul, &[f32], &[f32], &mut [f32], usize, usize, usize);

const VARIANTS: &[(&str, GemmFn)] = &[("reference", gemm_reference), ("parallel", gemm)];

type BlockFpFn = fn(&BlockFpGemm, &[f32], &[f32], &mut [f32], usize, usize, usize);

/// Whole-matrix quantization (the paper's literal mode) is the blockfp
/// baseline, the scalar per-tile reference anchors semantics, and
/// `parallel` is the engine.
const BLOCKFP_VARIANTS: &[(&str, BlockFpFn)] = &[
    ("whole_matrix", BlockFpGemm::execute_whole_matrix),
    ("reference", BlockFpGemm::reference),
    ("parallel", BlockFpGemm::execute),
];

/// `man_width` for the benched blockfp engine: 9 signed bits = 8
/// magnitude bits, the bf16-mantissa-equivalent width that rides the
/// memoized product LUT (the configuration the accelerator actually
/// targets).
const BLOCKFP_WIDTH: u32 = 9;

/// Smallest size the dispatch guard applies to: below this a cell runs
/// in microseconds and scheduler noise swamps the 5% margin.
const GUARD_MIN_SIZE: usize = 64;

fn test_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..m * k).map(|i| (i as f32 % 7.0) - 3.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i as f32 % 5.0) - 2.0).collect();
    (a, b)
}

/// One GEMM of perfbench's CNN (`train` workload, batch 8): `m×k×n` and
/// the zero fractions of A and B measured there.
struct CnnGemm {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    zero_a: f64,
    zero_b: f64,
}

/// Forward is `W · cols`, `grad_w` is `g · colsᵀ` and `grad_cols` is
/// `Wᵀ · g`. The streamed B operand is the im2col panel (padding and
/// post-ReLU zeros) or, in `grad_cols`, the output gradient (ReLU and
/// max-pool gradients are mostly zero); `grad_w` streams the gradient
/// from the A side.
const CNN_GEMMS: &[CnnGemm] = &[
    CnnGemm { name: "conv1_fwd", m: 8, k: 9, n: 2048, zero_a: 0.0, zero_b: 0.08 },
    CnnGemm { name: "conv2_fwd", m: 16, k: 72, n: 512, zero_a: 0.0, zero_b: 0.31 },
    CnnGemm { name: "conv1_grad_w", m: 8, k: 2048, n: 9, zero_a: 0.80, zero_b: 0.08 },
    CnnGemm { name: "conv2_grad_w", m: 16, k: 512, n: 72, zero_a: 0.95, zero_b: 0.31 },
    CnnGemm { name: "conv1_grad_cols", m: 9, k: 8, n: 2048, zero_a: 0.0, zero_b: 0.80 },
    CnnGemm { name: "conv2_grad_cols", m: 72, k: 16, n: 512, zero_a: 0.0, zero_b: 0.95 },
];

/// `len` values in `±[0.05, 2.05)`, each zero with probability `zero`,
/// from a seeded splitmix64 stream.
fn sparse_operand(len: usize, zero: f64, seed: u64) -> Vec<f32> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    (0..len)
        .map(|_| {
            let (gate, mag, sign) = (next(), next(), next());
            if gate < zero {
                0.0
            } else {
                let v = (0.05 + 2.0 * mag) as f32;
                if sign < 0.5 {
                    -v
                } else {
                    v
                }
            }
        })
        .collect()
}

impl CnnGemm {
    fn operands(&self) -> (Vec<f32>, Vec<f32>) {
        (
            sparse_operand(self.m * self.k, self.zero_a, 0xA11CE ^ self.m as u64),
            sparse_operand(self.k * self.n, self.zero_b, 0xB0B ^ self.n as u64),
        )
    }
}

/// The operand statistics a row reports: zero fractions of A and B and
/// the MACs whose operands are both nonzero.
#[derive(Clone, Copy)]
struct Sparsity {
    zero_a: f64,
    zero_b: f64,
    nonzero_macs: u64,
}

fn sparsity(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Sparsity {
    let zeros = |v: &[f32]| v.iter().filter(|&&x| x == 0.0).count() as f64 / v.len().max(1) as f64;
    let nonzero_macs = (0..k)
        .map(|l| {
            let col_a = (0..m).filter(|&i| a[i * k + l] != 0.0).count() as u64;
            let row_b = b[l * n..(l + 1) * n].iter().filter(|&&x| x != 0.0).count() as u64;
            col_a * row_b
        })
        .sum();
    Sparsity { zero_a: zeros(a), zero_b: zeros(b), nonzero_macs }
}

/// Times one GEMM cell: one warm-up, then `reps` timed runs of `gemm`
/// into a C of `len` elements, zeroed outside the timed region,
/// returning `(best_ns, median_ns)`.
fn time_gemm(len: usize, reps: usize, mut gemm: impl FnMut(&mut [f32])) -> (u128, u128) {
    let mut out = vec![0.0f32; len];
    gemm(&mut out); // warm-up (LUT build, pool spawn)
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            out.fill(0.0);
            let t0 = Instant::now();
            gemm(&mut out);
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (samples[0], samples[samples.len() / 2])
}

/// `reps` timed calls of `run` after one warm-up: `(best_ns,
/// median_ns)`.
fn time_reps(reps: usize, mut run: impl FnMut()) -> (u128, u128) {
    run();
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (samples[0], samples[samples.len() / 2])
}

/// The median of `reps` timed [`GemmBackend::prepare_b`] calls on `b`,
/// after one warm-up.
fn time_prepare_b(backend: &dyn GemmBackend, b: &[f32], k: usize, n: usize, reps: usize) -> u128 {
    time_reps(reps, || {
        black_box(backend.prepare_b(b, k, n));
    })
    .1
}

/// One `products` row: `ops` invocations of a primitive per timed
/// repetition.
struct ProductRow {
    op: &'static str,
    backend: &'static str,
    ops: usize,
    best_ns: u128,
    median_ns: u128,
}

/// Operands that vary call to call: `count` values `lead | (i·73 mod
/// lead)`, so every one has the leading one an fp mantissa carries.
fn mantissas(lead: u64, count: usize) -> Vec<u64> {
    (0..count as u64).map(|i| lead | ((i * 73) % lead)).collect()
}

/// Times the product-level primitives, `ops` per repetition.
fn time_products(ops: usize, reps: usize) -> Vec<ProductRow> {
    let mut rows = Vec::new();
    let mut push = |op, backend, ops, (best_ns, median_ns)| {
        rows.push(ProductRow { op, backend, ops, best_ns, median_ns });
    };
    let xs: Vec<f32> = (0..256).map(|i| 0.37 + (i as f32) * 0.113).collect();
    for (backend, format) in [("bf16_pc3_tr", FpFormat::BF16), ("fp16_pc3_tr", FpFormat::FP16)] {
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, format);
        push(
            "scalar_mul",
            backend,
            ops,
            time_reps(reps, || {
                for i in 0..ops {
                    black_box(mul.mul(black_box(xs[i % 256]), black_box(-xs[(i * 7 + 3) % 256])));
                }
            }),
        );
    }
    const LANES: usize = 16;
    for (backend, n) in [("bf16_pc3_tr", 8u32), ("fp16_pc3_tr", 11)] {
        let mm = MantissaMultiplier::new(MultiplierConfig::PC3_TR, OperandMode::Fp, n);
        let lead = 1u64 << (n - 1);
        let preps: Vec<_> = mantissas(lead, 16).into_iter().map(|a| mm.prepare(a)).collect();
        let groups: Vec<[u64; LANES]> = mantissas(lead, 64 * LANES)
            .chunks_exact(LANES)
            .map(|g| g.try_into().expect("LANES lanes"))
            .collect();
        let calls = ops / LANES;
        push(
            "mul_lanes",
            backend,
            calls * LANES,
            time_reps(reps, || {
                for i in 0..calls {
                    black_box(mm.mul_lanes(&preps[i % 16], black_box(&groups[i % 64])));
                }
            }),
        );
    }
    let geometry = BankGeometry::square_from_bytes(8 * 1024).expect("8 kB bank");
    let mut bank = SramBank::new(geometry, GroupLayout::new(8, 16).expect("layout")).expect("bank");
    for slot in 0..bank.slots() {
        for line in 0..8 {
            let pattern = ((slot * 131 + line * 7) & 0xFFFF) as u64;
            bank.write_line(0, line, slot, pattern).expect("programmed line");
        }
    }
    let calls = ops / 64;
    push(
        "read_or_group",
        "sram_8kb",
        calls,
        time_reps(reps, || {
            for i in 0..calls {
                let mask = black_box(1 + (i as u64 * 37) % 255);
                black_box(bank.read_or_group(0, mask).expect("mask within the 8 lines"));
            }
        }),
    );
    rows
}

/// CI guard for the blockfp rows: no NaN/Inf, no scale blowup against
/// the exact f32 GEMM, and byte-identical output across repeated runs.
/// Exits non-zero on failure so the bench-smoke step catches
/// regressions without parsing the JSON.
fn validate_blockfp(engine: &BlockFpGemm, size: usize) {
    let (m, k, n) = (size, size, size);
    let (a, b) = test_operands(m, k, n);
    let run = |f: &dyn Fn(&mut [f32])| {
        let mut c = vec![0.0f32; m * n];
        f(&mut c);
        c
    };
    let out = run(&|c| engine.execute(&a, &b, c, m, k, n));
    if out.iter().any(|v| !v.is_finite()) {
        eprintln!("blockfp validation failed: non-finite output at {size}^3");
        std::process::exit(1);
    }
    let exact = run(&|c| gemm(&ExactMul, &a, &b, c, m, k, n));
    let (mut err, mut mag) = (0.0f64, 0.0f64);
    for (e, v) in exact.iter().zip(&out) {
        err += (*e as f64 - *v as f64).abs();
        mag += (*e as f64).abs();
    }
    if err > 0.5 * mag + 1e-3 {
        eprintln!("blockfp validation failed: scale blowup at {size}^3 (err {err} vs mag {mag})");
        std::process::exit(1);
    }
    let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let golden = bits(&out);
    let repeat = bits(&run(&|c| engine.execute(&a, &b, c, m, k, n)));
    if repeat != golden {
        eprintln!("blockfp validation failed: repeated runs diverged at {size}^3");
        std::process::exit(1);
    }
}

/// What a row was timed on: an `s×s×s` cube or a named CNN GEMM.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Cube(usize),
    Cnn(&'static str),
}

struct Cell {
    shape: Shape,
    /// `m, k, n`.
    dims: (usize, usize, usize),
    sparsity: Sparsity,
    backend: String,
    variant: &'static str,
    best_ns: u128,
    median_ns: u128,
    /// Median B-preparation time (shape rows only).
    prepare_ns: Option<u128>,
    /// Under the dispatch guard.
    guarded: bool,
}

impl Cell {
    fn macs(&self) -> u64 {
        let (m, k, n) = self.dims;
        (m * k * n) as u64
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Best reference time for a cell's (shape, backend) group.
fn reference_ns(cells: &[Cell], cell: &Cell) -> u128 {
    cells
        .iter()
        .find(|c| c.shape == cell.shape && c.backend == cell.backend && c.variant == "reference")
        .map(|c| c.best_ns)
        .unwrap_or(0)
}

/// The dispatch guard: no guarded non-reference row may lose more than
/// 5% to the naive reference — if one does, the dispatch layer (or a
/// kernel) has regressed. Returns `false` (after reporting each losing
/// row) on a violation.
fn dispatch_guard_holds(cells: &[Cell]) -> bool {
    let mut failed = false;
    for cell in cells.iter().filter(|c| c.guarded && c.variant != "reference") {
        let reference = reference_ns(cells, cell);
        if reference == 0 || cell.best_ns == 0 {
            continue;
        }
        let speedup = reference as f64 / cell.best_ns as f64;
        if speedup < 0.95 {
            let (m, k, n) = cell.dims;
            eprintln!(
                "dispatch guard failed: {m}x{k}x{n} {} {} at {speedup:.3}x vs reference",
                cell.backend, cell.variant
            );
            failed = true;
        }
    }
    !failed
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_gemm.json".into());
    let (sizes, reps): (&[usize], usize) = if quick { (&[16, 32], 3) } else { (&[64, 256], 5) };

    let backends: Vec<(&str, Box<dyn ScalarMul>)> = vec![
        ("exact_f32", Box::new(daism_core::ExactMul)),
        ("bf16_pc3_tr", Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16))),
        ("fp16_pc3_tr", Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16))),
    ];

    let blockfp = BlockFpGemm::new(MultiplierConfig::PC3_TR, BLOCKFP_WIDTH);
    let blockfp_name = format!("blockfp_w{BLOCKFP_WIDTH}_pc3_tr");
    let mut cells: Vec<Cell> = Vec::new();
    for &size in sizes {
        let (a, b) = test_operands(size, size, size);
        let sp = sparsity(&a, &b, size, size, size);
        let guarded = size >= GUARD_MIN_SIZE;
        for (bname, backend) in &backends {
            for (vname, f) in VARIANTS {
                let (best, median) = time_gemm(size * size, reps, |c| {
                    f(backend.as_ref(), &a, &b, c, size, size, size)
                });
                eprintln!("{size}^3 {bname:>12} {vname:>11}: best {best} ns, median {median} ns");
                cells.push(Cell {
                    shape: Shape::Cube(size),
                    dims: (size, size, size),
                    sparsity: sp,
                    backend: (*bname).to_string(),
                    variant: vname,
                    best_ns: best,
                    median_ns: median,
                    prepare_ns: None,
                    guarded,
                });
            }
        }
        validate_blockfp(&blockfp, size);
        for (vname, f) in BLOCKFP_VARIANTS {
            let (best, median) =
                time_gemm(size * size, reps, |c| f(&blockfp, &a, &b, c, size, size, size));
            eprintln!(
                "{size}^3 {blockfp_name:>12} {vname:>12}: best {best} ns, median {median} ns"
            );
            cells.push(Cell {
                shape: Shape::Cube(size),
                dims: (size, size, size),
                sparsity: sp,
                backend: blockfp_name.clone(),
                variant: vname,
                best_ns: best,
                median_ns: median,
                prepare_ns: None,
                guarded,
            });
        }
    }
    // The two approximate backends of perfbench's `cnn_serve`: the
    // product-table and the chunk-table multiplier.
    let shape_backends = [("bf16_pc3_tr", FpFormat::BF16), ("fp16_pc3_tr", FpFormat::FP16)];
    for g in CNN_GEMMS {
        let (a, b) = g.operands();
        let sp = sparsity(&a, &b, g.m, g.k, g.n);
        for (bname, format) in shape_backends {
            let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, format);
            let prepare_ns = time_prepare_b(&mul, &b, g.k, g.n, reps);
            for (vname, f) in VARIANTS {
                let (best, median) =
                    time_gemm(g.m * g.n, reps, |c| f(&mul, &a, &b, c, g.m, g.k, g.n));
                eprintln!("{:>15} {bname} {vname:>11}: best {best} ns, median {median} ns", g.name);
                cells.push(Cell {
                    shape: Shape::Cnn(g.name),
                    dims: (g.m, g.k, g.n),
                    sparsity: sp,
                    backend: bname.into(),
                    variant: vname,
                    best_ns: best,
                    median_ns: median,
                    prepare_ns: Some(prepare_ns),
                    guarded: !quick,
                });
            }
        }
    }

    let products = time_products(if quick { 1 << 12 } else { 1 << 16 }, reps);
    for p in &products {
        eprintln!("{:>13} {:>12}: {} ops, best {} ns", p.op, p.backend, p.ops, p.best_ns);
    }

    // Hand-rolled JSON (no serde in the offline container).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"daism-bench-gemm/5\",\n");
    json.push_str("  \"emitter\": \"bench_gemm_json\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"threads\": {},\n", rayon_threads()));
    json.push_str(&format!("  \"tile_kernel\": \"{}\",\n", tile_kernel()));
    json.push_str(&format!("  \"reps_per_cell\": {reps},\n"));
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let reference = reference_ns(&cells, cell);
        let speedup = if cell.best_ns == 0 { 0.0 } else { reference as f64 / cell.best_ns as f64 };
        let shape = match cell.shape {
            Shape::Cube(size) => format!("\"size\": {size}"),
            Shape::Cnn(name) => format!("\"shape\": \"{name}\""),
        };
        let (m, k, n) = cell.dims;
        let prepare = cell.prepare_ns.map_or(String::new(), |ns| format!(", \"prepare_ns\": {ns}"));
        let per = |macs: u64| cell.best_ns as f64 / macs.max(1) as f64;
        json.push_str(&format!(
            "    {{{shape}, \"m\": {m}, \"k\": {k}, \"n\": {n}, \"backend\": \"{}\", \
             \"variant\": \"{}\", \"zero_fraction_a\": {:.3}, \"zero_fraction_b\": {:.3}, \
             \"best_ns\": {}, \"median_ns\": {}, \"ns_per_mac\": {:.3}, \
             \"ns_per_nonzero_mac\": {:.3}, \"speedup_vs_reference\": {:.3}{prepare}}}{}\n",
            json_escape(&cell.backend),
            cell.variant,
            cell.sparsity.zero_a,
            cell.sparsity.zero_b,
            cell.best_ns,
            cell.median_ns,
            per(cell.macs()),
            per(cell.sparsity.nonzero_macs),
            speedup,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"products\": [\n");
    for (i, p) in products.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"backend\": \"{}\", \"ops\": {}, \"best_ns\": {}, \
             \"median_ns\": {}, \"ns_per_op\": {:.3}}}{}\n",
            p.op,
            p.backend,
            p.ops,
            p.best_ns,
            p.median_ns,
            p.best_ns as f64 / p.ops.max(1) as f64,
            if i + 1 == products.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if !dispatch_guard_holds(&cells) {
        std::process::exit(1);
    }
}

fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

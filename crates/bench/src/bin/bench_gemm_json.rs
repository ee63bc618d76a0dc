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
//!   register-tile `f32` blocks for `exact_f32`, SoA lane-packed
//!   prepared panels for the approximate backends) and splits C rows over
//!   the worker pool above its thread gate.
//!
//! For the blockfp backend `parallel` is [`BlockFpGemm::execute`], the
//! same walk with integer tile MACs.
//!
//! Each (size, backend, variant) cell reports the best and median of a
//! few timed repetitions (best-of filters scheduler noise; the median
//! shows spread). Derived speedups versus the reference are included
//! per cell so the JSON is self-describing.
//!
//! # Guards (CI gates, non-zero exit on violation)
//!
//! * **Dispatch guard**: at sizes ≥ 64³ every non-`reference` row must
//!   measure `speedup_vs_reference ≥ 0.95` — the dispatch layer must
//!   never pick a variant that loses to the naive loop (the PR-1/PR-2
//!   exact-f32 regression this PR fixes). Smaller smoke sizes are below
//!   timing resolution and are exempt.
//! * **BlockFp validation**: before timing, the engine's output is
//!   checked — all-finite, no scale blowup against the exact f32 GEMM,
//!   byte-identical across repeats. (Byte-identity across C row-chunk
//!   sizes, the thread-count seam, is pinned by `daism-core`'s unit
//!   tests.)

use daism_core::{
    gemm, gemm_reference, ApproxFpMul, BlockFpGemm, ExactMul, MultiplierConfig, ScalarMul,
};
use daism_num::FpFormat;
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

/// Times one `(backend, variant, size)` cell: `reps` timed runs after
/// one warm-up, returning `(best_ns, median_ns)`.
fn time_cell(f: GemmFn, mul: &dyn ScalarMul, size: usize, reps: usize) -> (u128, u128) {
    let (m, k, n) = (size, size, size);
    let (a, b) = test_operands(m, k, n);
    let mut out = vec![0.0f32; m * n];
    f(mul, &a, &b, &mut out, m, k, n); // warm-up (LUT build, pool spawn)
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            out.fill(0.0);
            let t0 = Instant::now();
            f(mul, &a, &b, &mut out, m, k, n);
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (samples[0], samples[samples.len() / 2])
}

/// Times one blockfp `(variant, size)` cell, same protocol as
/// [`time_cell`].
fn time_blockfp_cell(f: BlockFpFn, engine: &BlockFpGemm, size: usize, reps: usize) -> (u128, u128) {
    let (m, k, n) = (size, size, size);
    let (a, b) = test_operands(m, k, n);
    let mut out = vec![0.0f32; m * n];
    f(engine, &a, &b, &mut out, m, k, n); // warm-up (LUT build, pool spawn)
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            out.fill(0.0);
            let t0 = Instant::now();
            f(engine, &a, &b, &mut out, m, k, n);
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (samples[0], samples[samples.len() / 2])
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

struct Cell {
    size: usize,
    backend: String,
    variant: &'static str,
    best_ns: u128,
    median_ns: u128,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Best reference time for a cell's (size, backend) group.
fn reference_ns(cells: &[Cell], cell: &Cell) -> u128 {
    cells
        .iter()
        .find(|c| c.size == cell.size && c.backend == cell.backend && c.variant == "reference")
        .map(|c| c.best_ns)
        .unwrap_or(0)
}

/// The dispatch guard: at guarded sizes, no emitted non-reference row
/// may lose more than 5% to the naive reference — if one does, the
/// dispatch layer (or a kernel) has regressed. Exits non-zero.
fn enforce_dispatch_guard(cells: &[Cell]) {
    let mut failed = false;
    for cell in cells.iter().filter(|c| c.size >= GUARD_MIN_SIZE && c.variant != "reference") {
        let reference = reference_ns(cells, cell);
        if reference == 0 || cell.best_ns == 0 {
            continue;
        }
        let speedup = reference as f64 / cell.best_ns as f64;
        if speedup < 0.95 {
            eprintln!(
                "dispatch guard failed: {}^3 {} {} at {speedup:.3}x vs reference",
                cell.size, cell.backend, cell.variant
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
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
        for (bname, backend) in &backends {
            for (vname, f) in VARIANTS {
                let (best, median) = time_cell(*f, backend.as_ref(), size, reps);
                eprintln!("{size}^3 {bname:>12} {vname:>11}: best {best} ns, median {median} ns");
                cells.push(Cell {
                    size,
                    backend: (*bname).to_string(),
                    variant: vname,
                    best_ns: best,
                    median_ns: median,
                });
            }
        }
        validate_blockfp(&blockfp, size);
        for (vname, f) in BLOCKFP_VARIANTS {
            let (best, median) = time_blockfp_cell(*f, &blockfp, size, reps);
            eprintln!(
                "{size}^3 {blockfp_name:>12} {vname:>12}: best {best} ns, median {median} ns"
            );
            cells.push(Cell {
                size,
                backend: blockfp_name.clone(),
                variant: vname,
                best_ns: best,
                median_ns: median,
            });
        }
    }

    enforce_dispatch_guard(&cells);

    // Hand-rolled JSON (no serde in the offline container).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"daism-bench-gemm/2\",\n");
    json.push_str("  \"emitter\": \"bench_gemm_json\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"threads\": {},\n", rayon_threads()));
    json.push_str(&format!("  \"reps_per_cell\": {reps},\n"));
    json.push_str("  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let reference = reference_ns(&cells, cell);
        let speedup = if cell.best_ns == 0 { 0.0 } else { reference as f64 / cell.best_ns as f64 };
        json.push_str(&format!(
            "    {{\"size\": {}, \"backend\": \"{}\", \"variant\": \"{}\", \
             \"best_ns\": {}, \"median_ns\": {}, \"speedup_vs_reference\": {:.3}}}{}\n",
            cell.size,
            json_escape(&cell.backend),
            cell.variant,
            cell.best_ns,
            cell.median_ns,
            speedup,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

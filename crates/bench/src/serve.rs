//! Serving-throughput experiment: **compiled sessions vs eager
//! forwards**, per backend, at request batch sizes 1 / 8 / 32.
//!
//! The workload is the repo's serving scenario distilled: a trained
//! Dense stack with 256-wide hidden layers (each request drives
//! `batch × 256 × 256`-class GEMMs), fixed weights, a stream of
//! requests. The *eager* mode is `Sequential::forward`, which compiles
//! every layer from its current weights on every request — decoded B
//! tiles, microkernel packing, BlockFp weight tiles — and throws the
//! compiled form away; the *compiled* mode serves from a
//! [`CompiledModel`](daism_dnn::CompiledModel) snapshot that paid the
//! conversion once. Both run the same compiled layers, so the gap
//! between them is the per-request weight conversion.
//!
//! Before timing, each backend's compiled output is validated
//! bit-identical to its eager output (a stale or wrong snapshot must
//! never win a benchmark). The `bench_serve_json` bin wraps this module
//! with JSON emission (`BENCH_serve.json`) and the CI throughput guard.

use daism_core::{ApproxFpMul, BlockFpGemm, ExactMul, GemmBackend, MultiplierConfig};
use daism_dnn::{models, Layer, Sequential, Tensor};
use daism_num::FpFormat;
use std::fmt;
use std::time::Instant;

/// Input feature width of the serving model (also its hidden width).
fn model_dim(quick: bool) -> usize {
    if quick {
        32
    } else {
        256
    }
}

/// Output classes of the serving model.
const CLASSES: usize = 16;

/// `man_width` for the BlockFp serving engine (matches the
/// `bench_gemm_json` blockfp rows).
const BLOCKFP_WIDTH: u32 = 9;

/// The serving model: two 256-wide (or 32-wide in quick mode) hidden
/// Dense layers — the "256³-class" GEMM shape per request at batch
/// ≥ the layer width, and the `m == 1` serving case at batch 1.
fn serve_model(quick: bool) -> Sequential {
    let dim = model_dim(quick);
    models::mlp(dim, dim, CLASSES, 2)
}

/// One timed cell of the experiment.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Backend name (`exact_f32`, `bf16_pc3_tr`, `fp16_pc3_tr`,
    /// `blockfp_w9_pc3_tr`).
    pub backend: String,
    /// `"eager"`, `"compiled"`, or `"compile"` (the one-time snapshot
    /// cost, amortised across every subsequent request).
    pub mode: &'static str,
    /// Samples per request (0 for `compile` rows).
    pub batch: usize,
    /// Requests served per timed repetition (1 for `compile` rows).
    pub requests: usize,
    /// Best-of-reps wall time for the whole request stream.
    pub best_ns: u128,
    /// Median-of-reps wall time.
    pub median_ns: u128,
}

impl ServeRow {
    /// Nanoseconds per request at the best repetition.
    pub fn ns_per_request(&self) -> u128 {
        self.best_ns / self.requests.max(1) as u128
    }

    /// Requests per second at the best repetition.
    pub fn requests_per_sec(&self) -> f64 {
        if self.best_ns == 0 {
            0.0
        } else {
            self.requests as f64 / (self.best_ns as f64 * 1e-9)
        }
    }

    /// Samples served per timed repetition (`batch × requests`; 0 for
    /// `compile` rows). Unlike requests, samples compare across batch
    /// sizes.
    pub fn samples(&self) -> usize {
        self.batch * self.requests
    }

    /// Nanoseconds per sample at the best repetition (`None` for
    /// `compile` rows, which serve no samples).
    pub fn ns_per_sample(&self) -> Option<u128> {
        (self.samples() > 0).then(|| self.best_ns / self.samples() as u128)
    }

    /// Samples per second at the best repetition (`None` for `compile`
    /// rows).
    pub fn samples_per_sec(&self) -> Option<f64> {
        (self.samples() > 0 && self.best_ns > 0)
            .then(|| self.samples() as f64 / (self.best_ns as f64 * 1e-9))
    }
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Quick (CI smoke) sizes?
    pub quick: bool,
    /// Hidden/input width of the served model.
    pub dim: usize,
    /// Worker threads available during the run.
    pub threads: usize,
    /// All timed cells.
    pub rows: Vec<ServeRow>,
}

impl ServeResult {
    /// The eager twin of a compiled row, if present.
    pub fn eager_of(&self, row: &ServeRow) -> Option<&ServeRow> {
        self.rows
            .iter()
            .find(|r| r.backend == row.backend && r.batch == row.batch && r.mode == "eager")
    }
}

impl fmt::Display for ServeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serving throughput, dim {} ({} threads){}:",
            self.dim,
            self.threads,
            if self.quick { " [quick]" } else { "" }
        )?;
        writeln!(
            f,
            "{:>20} {:>9} {:>6} {:>14} {:>12} {:>12}",
            "backend", "mode", "batch", "ns/request", "req/s", "samples/s"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>20} {:>9} {:>6} {:>14} {:>12.1} {:>12.1}",
                row.backend,
                row.mode,
                row.batch,
                row.ns_per_request(),
                row.requests_per_sec(),
                row.samples_per_sec().unwrap_or(0.0)
            )?;
        }
        Ok(())
    }
}

/// Times `reps` repetitions of `f` after one warm-up call, returning
/// `(best_ns, median_ns)`.
fn time_reps(reps: usize, mut f: impl FnMut()) -> (u128, u128) {
    f(); // warm-up: LUT build, pool spawn, allocator steady state
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (samples[0], samples[samples.len() / 2])
}

/// Deterministic request stream: `count` inputs of `batch × dim`.
fn request_stream(count: usize, batch: usize, dim: usize) -> Vec<Tensor> {
    (0..count).map(|i| Tensor::randn(&[batch, dim], 1.0, 1000 + i as u64)).collect()
}

fn requests_for(quick: bool, batch: usize) -> usize {
    if quick {
        (8 / batch).max(2)
    } else {
        (48 / batch).max(4)
    }
}

/// Asserts compiled output == eager output, bit for bit, on one probe
/// input — a wrong cache must never win a benchmark.
///
/// # Panics
///
/// Panics on any bit divergence.
fn validate_bits(eager: &Tensor, compiled: &Tensor, backend: &str) {
    assert_eq!(eager.shape(), compiled.shape(), "{backend}: serve validation shape mismatch");
    for (i, (a, b)) in eager.data().iter().zip(compiled.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{backend}: compiled serving diverged from eager at element {i}: {a} vs {b}"
        );
    }
}

/// The one measurement protocol every backend runs: bit-validation,
/// compile-cost row, then eager-vs-compiled rows per batch size — in one
/// place so the backends' rows can never skew apart. The eager and the
/// compiled model are built from identical seeds, so they hold identical
/// weights.
fn run_backend(
    rows: &mut Vec<ServeRow>,
    name: &str,
    backend: &dyn GemmBackend,
    quick: bool,
    reps: usize,
) {
    let dim = model_dim(quick);
    let mut eager_model = serve_model(quick);
    let compile_model = serve_model(quick);
    let probe = Tensor::randn(&[3, dim], 1.0, 7);
    let compiled = compile_model.compile(backend);
    validate_bits(&eager_model.forward(&probe, backend, false), &compiled.forward(&probe), name);

    let (compile_best, compile_median) = time_reps(reps, || {
        std::hint::black_box(compile_model.compile(backend));
    });
    rows.push(ServeRow {
        backend: name.to_string(),
        mode: "compile",
        batch: 0,
        requests: 1,
        best_ns: compile_best,
        median_ns: compile_median,
    });

    let batches: &[usize] = if quick { &[1, 4] } else { &[1, 8, 32] };
    for &batch in batches {
        let count = requests_for(quick, batch);
        let stream = request_stream(count, batch, dim);
        let (best, median) = time_reps(reps, || {
            for x in &stream {
                std::hint::black_box(eager_model.forward(x, backend, false));
            }
        });
        rows.push(ServeRow {
            backend: name.to_string(),
            mode: "eager",
            batch,
            requests: count,
            best_ns: best,
            median_ns: median,
        });
        let (best, median) = time_reps(reps, || {
            for x in &stream {
                std::hint::black_box(compiled.forward(x));
            }
        });
        rows.push(ServeRow {
            backend: name.to_string(),
            mode: "compiled",
            batch,
            requests: count,
            best_ns: best,
            median_ns: median,
        });
    }
}

/// Runs the whole experiment: every backend × {eager, compiled} ×
/// batch {1, 8, 32} (quick mode: {1, 4} at 32-wide layers), with a
/// bit-identity validation per backend before any timing.
pub fn run(quick: bool) -> ServeResult {
    let reps = 3;
    let mut rows = Vec::new();
    let backends: [(String, Box<dyn GemmBackend>); 4] = [
        ("exact_f32".into(), Box::new(ExactMul)),
        (
            "bf16_pc3_tr".into(),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)),
        ),
        (
            "fp16_pc3_tr".into(),
            Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16)),
        ),
        (
            format!("blockfp_w{BLOCKFP_WIDTH}_pc3_tr"),
            Box::new(BlockFpGemm::new(MultiplierConfig::PC3_TR, BLOCKFP_WIDTH)),
        ),
    ];
    for (name, backend) in &backends {
        run_backend(&mut rows, name, backend.as_ref(), quick, reps);
    }
    ServeResult { quick, dim: model_dim(quick), threads: rayon::current_num_threads(), rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_cells() {
        let result = run(true);
        assert!(result.quick);
        // 4 backends x (1 compile row + 2 batches x 2 modes).
        assert_eq!(result.rows.len(), 4 * (1 + 2 * 2));
        for row in &result.rows {
            assert!(row.best_ns > 0, "{}/{} timed at 0 ns", row.backend, row.mode);
            assert!(row.best_ns <= row.median_ns);
            if row.mode == "compiled" {
                assert!(result.eager_of(row).is_some(), "compiled row without eager twin");
            }
        }
        let shown = result.to_string();
        assert!(shown.contains("bf16_pc3_tr"));
        assert!(shown.contains("fp16_pc3_tr"));
        assert!(shown.contains("compiled"));
    }
}

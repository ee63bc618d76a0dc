//! Machine-readable serving-throughput trajectory: times a request
//! stream through the eager model forwards (each compiles the layer's
//! weights again) vs a compiled inference session, per backend, at
//! batch 1/8/32, and writes `BENCH_serve.json` so the
//! compile-once-serve-many win is tracked across changes.
//!
//! Every row reports per request (`ns_per_request`, `requests_per_sec`)
//! and per sample (`ns_per_sample`, `samples_per_sec`; `null` on the
//! one-time `compile` rows). A request carries `batch` samples, so only
//! the per-sample columns compare across batch sizes. The `compile`
//! rows also report `prepared_bytes`, the heap bytes the compiled model
//! holds.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p daism-bench --bin bench_serve_json              # full (256-wide layers)
//! cargo run --release -p daism-bench --bin bench_serve_json -- --quick  # 32-wide (CI smoke)
//! cargo run --release -p daism-bench --bin bench_serve_json -- --out path.json
//! ```
//!
//! The measurement itself lives in [`daism_bench::serve`]; each backend
//! validates compiled output == eager output bit-for-bit before any
//! timing (a panic there fails CI louder than any guard).
//!
//! The JSON is written before the guards run, so a run that trips one
//! still leaves its rows.
//!
//! # Guards (CI gates, non-zero exit on violation; full sizes only —
//! quick cells run in microseconds and timing noise swamps any margin)
//!
//! * **Throughput guard**: at batch ≥ 8 no backend's compiled mode may
//!   measure below 0.95× its eager requests/sec — persisting the packed
//!   weights must never lose to rebuilding them per request.
//! * **Batch-1 latency guard**: for the approximate backends
//!   (`bf16_pc3_tr`, `fp16_pc3_tr`, `blockfp_*`) compiled batch-1 must beat eager
//!   outright (≥ 1.0×) — single-sample requests are exactly where the
//!   per-request weight conversion hurts most, and the compiled path
//!   does none of it.

use daism_bench::serve;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Both guards over the full-size rows; `false` (after reporting each
/// losing row) on a violation.
fn guards_hold(result: &serve::ServeResult) -> bool {
    let mut failed = false;
    for row in result.rows.iter().filter(|r| r.mode == "compiled") {
        let Some(eager) = result.eager_of(row) else { continue };
        if row.best_ns == 0 || eager.best_ns == 0 {
            continue;
        }
        let speedup = eager.best_ns as f64 / row.best_ns as f64;
        if row.batch >= 8 && speedup < 0.95 {
            eprintln!(
                "serve guard failed: {} batch {} compiled at {speedup:.3}x vs eager",
                row.backend, row.batch
            );
            failed = true;
        }
        let approximate = ["bf16", "fp16", "blockfp"].iter().any(|p| row.backend.starts_with(p));
        if row.batch == 1 && approximate && speedup < 1.0 {
            eprintln!(
                "serve guard failed: {} batch-1 compiled latency lost to eager ({speedup:.3}x) — \
                 the prepared weights are not being reused",
                row.backend
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
        .unwrap_or_else(|| "BENCH_serve.json".into());

    let result = serve::run(quick);
    eprint!("{result}");

    // Hand-rolled JSON (no serde in the offline container).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"daism-bench-serve/2\",\n");
    json.push_str("  \"emitter\": \"bench_serve_json\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"model_dim\": {},\n", result.dim));
    json.push_str(&format!("  \"threads\": {},\n", result.threads));
    json.push_str("  \"results\": [\n");
    for (i, row) in result.rows.iter().enumerate() {
        let speedup = result
            .eager_of(row)
            .filter(|_| row.mode == "compiled")
            .map(|eager| eager.best_ns as f64 / row.best_ns.max(1) as f64);
        let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"mode\": \"{}\", \"batch\": {}, \"requests\": {}, \
             \"best_ns\": {}, \"median_ns\": {}, \"ns_per_request\": {}, \
             \"requests_per_sec\": {:.1}, \"ns_per_sample\": {}, \"samples_per_sec\": {}{}{}}}{}\n",
            json_escape(&row.backend),
            row.mode,
            row.batch,
            row.requests,
            row.best_ns,
            row.median_ns,
            row.ns_per_request(),
            row.requests_per_sec(),
            or_null(row.ns_per_sample().map(|v| v.to_string())),
            or_null(row.samples_per_sec().map(|v| format!("{v:.1}"))),
            row.prepared_bytes.map(|b| format!(", \"prepared_bytes\": {b}")).unwrap_or_default(),
            speedup.map(|s| format!(", \"speedup_vs_eager\": {s:.3}")).unwrap_or_default(),
            if i + 1 == result.rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if !quick && !guards_hold(&result) {
        std::process::exit(1);
    }
}

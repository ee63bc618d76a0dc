//! Eager GEMMs issued from inside worker-pool jobs must be bit-identical
//! to the same GEMMs run one after another on one thread.
//!
//! An eager GEMM decodes its B tiles into buffers that belong to the
//! thread it runs on; GEMMs running in pool jobs, whose own decodes and
//! tile walks go back to the same pool, must neither share nor corrupt
//! them.
//!
//! This is deliberately the **only** test in this binary: the vendored
//! pool re-reads `RAYON_NUM_THREADS` per call via `getenv`, and glibc's
//! `setenv` is not safe against concurrent `getenv` from worker threads.
//! A single-test process flips the variable only while no GEMM runs.

use daism_core::{gemm, ApproxFpMul, MultiplierConfig, QuantizedExactMul, ScalarMul};
use daism_num::FpFormat;
use rayon::prelude::*;

/// A seeded operand: about a third zeros, the rest normal values in
/// `±[0.05, 8)`, with an Inf or a NaN now and then.
fn operand(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 97 {
                0 => f32::INFINITY,
                1 => f32::NAN,
                r if r < 33 => 0.0,
                _ => {
                    let v = 0.05 + 7.95 * ((state >> 11) as f64 / (1u64 << 53) as f64) as f32;
                    if state & 1 == 0 {
                        v
                    } else {
                        -v
                    }
                }
            }
        })
        .collect()
}

#[test]
fn eager_gemms_inside_pool_jobs_match_serial_runs() {
    let backends: [Box<dyn ScalarMul>; 3] = [
        Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::BF16)),
        Box::new(ApproxFpMul::new(MultiplierConfig::PC3_TR, FpFormat::FP16)),
        Box::new(QuantizedExactMul::new(FpFormat::BF16)),
    ];
    // Shapes above and below the engine's thread gate, so some GEMMs
    // split their decode and C rows across the pool from inside a job;
    // neighbours differ in width and depth.
    let shapes = [(8usize, 72usize, 512usize), (2, 9, 16), (37, 24, 40), (3, 300, 1100), (1, 5, 3)];
    let cases: Vec<(usize, (usize, usize, usize))> =
        (0..24).map(|i| (i % backends.len(), shapes[i % shapes.len()])).collect();
    let run = |i: usize| {
        let (bi, (m, k, n)) = cases[i];
        let a = operand(m * k, 0xA000 + i as u64);
        let b = operand(k * n, 0xB000 + i as u64);
        let mut c = vec![0.0f32; m * n];
        gemm(backends[bi].as_ref(), &a, &b, &mut c, m, k, n);
        c
    };

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial: Vec<Vec<f32>> = (0..cases.len()).map(run).collect();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let mut pooled: Vec<Vec<f32>> = vec![Vec::new(); cases.len()];
    // Two cases per job: each job's thread runs two GEMMs in a row.
    pooled.par_chunks_mut(2).enumerate().for_each(|(ji, outs)| {
        for (oi, out) in outs.iter_mut().enumerate() {
            *out = run(2 * ji + oi);
        }
    });
    std::env::remove_var("RAYON_NUM_THREADS");

    for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
        assert_eq!(s.len(), p.len(), "case {i}");
        for (e, (&x, &y)) in s.iter().zip(p).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "case {i} ({}, {:?}) element {e}: serial {x} vs in a pool job {y}",
                backends[cases[i].0].name(),
                cases[i].1
            );
        }
    }
}

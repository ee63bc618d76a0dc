use crate::config::DaismConfig;
use crate::error::ArchError;
use crate::mapper::{map_gemm, Mapping};
use crate::workload::GemmShape;
use daism_core::{ApproxFpMul, OperandMode, SramMultiplier};
use daism_num::{FpClass, FpScalar};
use daism_sram::{AccessStats, BankGeometry};

/// A functional multi-bank DAISM datapath: executes a real GEMM through
/// the bit-level SRAM model, producing actual output values *and* the
/// cycle/access counts the analytical model predicts.
///
/// This is the reproduction's end-to-end validation vehicle: weights are
/// programmed as line patterns, every multiplication is a physical
/// multi-wordline OR read, exponent/sign/normalisation run through the
/// same [`ApproxFpMul::combine_raw`] logic as the software pipeline, and
/// accumulation happens at `f32`. Tests assert that
///
/// * each output equals the software [`ApproxFpMul`] dot product exactly;
/// * the activation count matches [`map_gemm`]'s segment math;
/// * zero inputs are bypassed (no activation — the paper's §III-C).
///
/// Use small shapes: every MAC is a bit-level simulation. The analytical
/// [`DaismModel`](crate::DaismModel) covers paper-sized layers.
#[derive(Debug)]
pub struct FunctionalDaism {
    config: DaismConfig,
    banks: Vec<SramMultiplier>,
    mul: ApproxFpMul,
    /// Segment homes: `(bank, group, base_row_of_m)` per segment, in
    /// column-major segment order (same order as [`map_gemm`]).
    segment_homes: Vec<(usize, usize, usize)>,
    mapping: Mapping,
    gemm: GemmShape,
    weights_f32: Vec<f32>,
    /// Each weight as programmed, `M×K` row-major: its scalar in the
    /// format, `None` where the banks hold 0 (zero, NaN, Inf or a
    /// flushed subnormal weight).
    programmed: Vec<Option<FpScalar>>,
    bypassed: u64,
}

impl FunctionalDaism {
    /// Programs `weights` (an `M×K` row-major kernel matrix) into the
    /// banks for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns capacity/shape errors, or programming errors from the
    /// SRAM path.
    pub fn new(config: DaismConfig, gemm: GemmShape, weights: &[f32]) -> Result<Self, ArchError> {
        if weights.len() != gemm.kernel_elements() {
            return Err(ArchError::InvalidWorkload(format!(
                "weight slice has {} elements, GEMM needs {}",
                weights.len(),
                gemm.kernel_elements()
            )));
        }
        let mapping = map_gemm(&config, &gemm)?;
        let geom = BankGeometry::square_from_bytes(config.bank_bytes)
            .map_err(|e| ArchError::InvalidConfig(e.to_string()))?;
        let n_width = config.format.mantissa_width();
        let mut banks = Vec::with_capacity(config.banks);
        for _ in 0..config.banks {
            banks.push(SramMultiplier::new(config.mult, OperandMode::Fp, n_width, geom)?);
        }
        let mul = ApproxFpMul::new(config.mult, config.format);

        // Place segments round-robin, tracking each bank's next group.
        let slots = config.slots_per_bank();
        let segments_per_column = gemm.m.div_ceil(slots);
        let mut next_group = vec![0usize; config.banks];
        let mut segment_homes = Vec::with_capacity(mapping.segments);
        let programmed: Vec<Option<FpScalar>> = weights
            .iter()
            .map(|&w| FpScalar::from_f32(w, config.format))
            .map(|ws| (ws.class() == FpClass::Normal).then_some(ws))
            .collect();
        for s in 0..mapping.segments {
            let bank = s % config.banks;
            let group = next_group[bank];
            next_group[bank] += 1;
            let k = s / segments_per_column;
            let chunk = s % segments_per_column;
            let m_base = chunk * slots;
            // Program this segment's weights: rows m_base.. of column k.
            for slot in 0..slots.min(gemm.m - m_base) {
                let ws = programmed[(m_base + slot) * gemm.k + k];
                banks[bank].program(group, slot, ws.map_or(0, |ws| ws.mantissa()))?;
            }
            segment_homes.push((bank, group, m_base));
        }

        Ok(FunctionalDaism {
            config,
            banks,
            mul,
            segment_homes,
            mapping,
            gemm,
            weights_f32: weights.to_vec(),
            programmed,
            bypassed: 0,
        })
    }

    /// The mapping used for placement.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Group activations performed so far: the banks' OR reads.
    pub fn activations(&self) -> u64 {
        self.sram_stats().or_reads
    }

    /// Activations skipped by the zero-input bypass.
    pub fn bypassed(&self) -> u64 {
        self.bypassed
    }

    /// Aggregate SRAM statistics over all banks.
    pub fn sram_stats(&self) -> AccessStats {
        self.banks.iter().map(|b| b.stats()).fold(AccessStats::new(), |acc, s| acc + s)
    }

    /// Executes the GEMM on `inputs` (a `K×N` row-major matrix),
    /// returning the `M×N` row-major output.
    ///
    /// # Errors
    ///
    /// Returns shape errors or datapath failures.
    pub fn execute(&mut self, inputs: &[f32]) -> Result<Vec<f32>, ArchError> {
        let (m, k, n) = (self.gemm.m, self.gemm.k, self.gemm.n);
        if inputs.len() != k * n {
            return Err(ArchError::InvalidWorkload(format!(
                "input slice has {} elements, GEMM needs {}",
                inputs.len(),
                k * n
            )));
        }
        let slots = self.config.slots_per_bank();
        let segments_per_column = self.gemm.m.div_ceil(slots);
        let mut out = vec![0f32; m * n];
        for p in 0..n {
            for (s, &(bank, group, m_base)) in self.segment_homes.iter().enumerate() {
                let col_k = s / segments_per_column;
                let x = inputs[col_k * n + p];
                let xs = FpScalar::from_f32(x, self.config.format);
                if xs.class() != FpClass::Normal {
                    // Zero bypass (NaN/Inf inputs are out of scope for
                    // the datapath; they are flushed like zeros here,
                    // while the software pipeline propagates them — the
                    // divergence `nan_and_inf_inputs_flush_unlike_software`
                    // pins).
                    self.bypassed += 1;
                    continue;
                }
                let raws = self.banks[bank].multiply_group(group, xs.mantissa())?;
                for slot in 0..slots.min(m - m_base) {
                    // A weight programmed as 0 contributes nothing.
                    let Some(ws) = &self.programmed[(m_base + slot) * k + col_k] else {
                        continue;
                    };
                    let product = self.mul.combine_raw(ws, &xs, raws[slot]);
                    out[(m_base + slot) * n + p] += product.to_f32();
                }
            }
        }
        Ok(out)
    }

    /// Reference output computed with the software pipeline: the same
    /// approximate multiplier run through the shared decoded-tile GEMM
    /// engine (`daism_core::gemm`) on `weights · inputs`.
    ///
    /// The datapath's segment-ordered accumulation visits each output's
    /// contributions in ascending-`k` order — exactly the engine's
    /// per-element order — so [`execute`](Self::execute) must match this
    /// bit-for-bit. Functional simulation and the DNN experiments
    /// thereby validate one GEMM kernel, not two divergent loops.
    pub fn reference(&self, inputs: &[f32]) -> Vec<f32> {
        let (m, k, n) = (self.gemm.m, self.gemm.k, self.gemm.n);
        let mut out = vec![0f32; m * n];
        daism_core::gemm(&self.mul, &self.weights_f32, inputs, &mut out, m, k, n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DaismConfig;
    use daism_core::{LineLayout, MultiplierConfig};
    use daism_num::FpFormat;

    fn small_config(mult: MultiplierConfig) -> DaismConfig {
        // 2 banks of 2 kB (128x128 bits) keeps the bit-level sim fast.
        DaismConfig::new(2, 2 * 1024, FpFormat::BF16, mult, 1000.0)
    }

    fn test_weights(m: usize, k: usize) -> Vec<f32> {
        (0..m * k)
            .map(|i| {
                let v = ((i * 2654435761) % 1000) as f32 / 250.0 - 2.0;
                if i % 7 == 0 {
                    0.0 // sprinkle zero weights
                } else {
                    v
                }
            })
            .collect()
    }

    fn test_inputs(k: usize, n: usize) -> Vec<f32> {
        (0..k * n)
            .map(|i| {
                if i % 5 == 0 {
                    0.0 // sprinkle zero inputs (bypass path)
                } else {
                    ((i * 40503) % 997) as f32 / 300.0 - 1.5
                }
            })
            .collect()
    }

    #[test]
    fn functional_matches_software_reference_exactly() {
        for mult in [MultiplierConfig::FLA, MultiplierConfig::PC3, MultiplierConfig::PC3_TR] {
            let gemm = GemmShape::new(10, 6, 9).unwrap();
            let weights = test_weights(10, 6);
            let inputs = test_inputs(6, 9);
            let mut hw = FunctionalDaism::new(small_config(mult), gemm, &weights).unwrap();
            let out = hw.execute(&inputs).unwrap();
            let reference = hw.reference(&inputs);
            for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{mult}: output {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn activation_count_matches_analytical_model() {
        let gemm = GemmShape::new(10, 6, 9).unwrap();
        let weights = test_weights(10, 6);
        let inputs: Vec<f32> = (1..=6 * 9).map(|i| i as f32 / 10.0).collect(); // no zeros
        let mut hw =
            FunctionalDaism::new(small_config(MultiplierConfig::PC3_TR), gemm, &weights).unwrap();
        let _ = hw.execute(&inputs).unwrap();
        // Every segment fires once per output position.
        let expected = hw.mapping().segments as u64 * gemm.n as u64;
        assert_eq!(hw.activations(), expected);
        assert_eq!(hw.bypassed(), 0);
        // SRAM OR reads == activations.
        assert_eq!(hw.sram_stats().or_reads, hw.activations());
    }

    #[test]
    fn sram_stats_count_every_event_exactly() {
        // Zero weights and zero inputs both present: the counters must
        // follow the datapath's events, not the analytical mapping.
        let (m, k, n) = (10, 6, 9);
        let gemm = GemmShape::new(m, k, n).unwrap();
        let weights = test_weights(m, k);
        let inputs = test_inputs(k, n);
        assert!(weights.contains(&0.0) && inputs.contains(&0.0));
        for mult in [MultiplierConfig::PC3_TR, MultiplierConfig::PC2, MultiplierConfig::FLA] {
            let config = small_config(mult);
            let layout = LineLayout::new(mult, OperandMode::Fp, config.format.mantissa_width());
            let cols = BankGeometry::square_from_bytes(config.bank_bytes).unwrap().cols() as u64;
            let mut hw = FunctionalDaism::new(config.clone(), gemm, &weights).unwrap();
            let _ = hw.execute(&inputs).unwrap();
            // Every non-bypassed (input, segment) pair fires the lines
            // its input mantissa decodes to.
            let segments_per_column = (hw.mapping().segments / k) as u64;
            let wordlines: u64 = inputs
                .iter()
                .map(|&x| FpScalar::from_f32(x, config.format))
                .filter(|xs| xs.class() == FpClass::Normal)
                .map(|xs| u64::from(layout.decode(xs.mantissa()).count_ones()))
                .sum::<u64>()
                * segments_per_column;
            let st = hw.sram_stats();
            assert_eq!(st.or_reads, hw.activations(), "{mult}");
            assert_eq!(st.wordline_activations, wordlines, "{mult}");
            assert_eq!(st.bitlines_sensed, st.or_reads * cols, "{mult}");
            // Every weight, zero or not, is programmed once, line by line.
            assert_eq!(st.writes, (m * k * layout.len()) as u64, "{mult}");
            assert_eq!(st.bits_written, st.writes * u64::from(layout.stored_width()), "{mult}");
        }
    }

    #[test]
    fn zero_inputs_are_bypassed() {
        let gemm = GemmShape::new(4, 3, 5).unwrap();
        let weights = test_weights(4, 3);
        let mut inputs = test_inputs(3, 5);
        inputs[0] = 0.0;
        inputs[7] = 0.0;
        let mut hw =
            FunctionalDaism::new(small_config(MultiplierConfig::PC2), gemm, &weights).unwrap();
        let _ = hw.execute(&inputs).unwrap();
        let zeros = inputs.iter().filter(|v| **v == 0.0).count() as u64;
        // Each zero input position skips its column's segments.
        let segments_per_column = hw.mapping().segments / gemm.k;
        assert_eq!(hw.bypassed(), zeros * segments_per_column as u64);
        assert!(hw.activations() < hw.mapping().segments as u64 * gemm.n as u64);
    }

    #[test]
    fn output_close_to_exact_gemm() {
        // The functional path approximates the exact GEMM within the
        // multiplier's error envelope (sanity: not garbage).
        let gemm = GemmShape::new(6, 8, 4).unwrap();
        let weights = test_weights(6, 8);
        let inputs = test_inputs(8, 4);
        let mut hw =
            FunctionalDaism::new(small_config(MultiplierConfig::PC3), gemm, &weights).unwrap();
        let out = hw.execute(&inputs).unwrap();
        for p in 0..gemm.n {
            for r in 0..gemm.m {
                let exact: f32 =
                    (0..gemm.k).map(|c| weights[r * gemm.k + c] * inputs[c * gemm.n + p]).sum();
                let approx = out[r * gemm.n + p];
                // Absolute tolerance scaled to the dot product magnitude.
                let scale: f32 = (0..gemm.k)
                    .map(|c| (weights[r * gemm.k + c] * inputs[c * gemm.n + p]).abs())
                    .sum();
                assert!(
                    (exact - approx).abs() <= 0.08 * scale + 1e-3,
                    "out[{r},{p}] = {approx}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn nan_and_inf_inputs_flush_unlike_software() {
        // The datapath bypasses a NaN or Inf activation like a zero; the
        // software pipeline propagates it into the outputs.
        let (m, k, n) = (4, 3, 5);
        let gemm = GemmShape::new(m, k, n).unwrap();
        let weights = test_weights(m, k);
        let finite = test_inputs(k, n);
        let mut inputs = finite.clone();
        inputs[1] = f32::NAN; // k = 0, column 1
        inputs[7] = f32::INFINITY; // k = 1, column 2
        let config = small_config(MultiplierConfig::PC3_TR);
        let mut clean = FunctionalDaism::new(config.clone(), gemm, &weights).unwrap();
        let _ = clean.execute(&finite).unwrap();
        let mut hw = FunctionalDaism::new(config.clone(), gemm, &weights).unwrap();
        let out = hw.execute(&inputs).unwrap();
        assert!(out.iter().all(|v| v.is_finite()), "datapath output must stay finite: {out:?}");
        let segments_per_column = (hw.mapping().segments / k) as u64;
        assert_eq!(hw.bypassed(), clean.bypassed() + 2 * segments_per_column);

        let mut reference = vec![0f32; m * n];
        let mul = ApproxFpMul::new(MultiplierConfig::PC3_TR, config.format);
        daism_core::gemm_reference(&mul, &weights, &inputs, &mut reference, m, k, n);
        // Zero weights are gated, so only rows with a nonzero weight on
        // the poisoned `k` see the NaN / Inf.
        let nan_rows: Vec<usize> = (0..m).filter(|r| weights[r * k] != 0.0).collect();
        let inf_rows: Vec<usize> = (0..m).filter(|r| weights[r * k + 1] != 0.0).collect();
        assert!(!nan_rows.is_empty() && !inf_rows.is_empty());
        for r in nan_rows {
            assert!(reference[r * n + 1].is_nan(), "row {r}: {}", reference[r * n + 1]);
        }
        for r in inf_rows {
            assert!(reference[r * n + 2].is_infinite(), "row {r}: {}", reference[r * n + 2]);
        }
    }

    #[test]
    fn full_capacity_kernel_on_the_paper_design() {
        // 16 banks × 32 groups × 16 slots: a 16×512 kernel fills every
        // group, which fits only if a group is the 8 physical PC3_tr
        // lines (the identically-zero H line has no row).
        let config = DaismConfig::paper_16x8kb();
        let gemm = GemmShape::new(16, 512, 2).unwrap();
        assert_eq!(gemm.kernel_elements(), config.kernel_capacity());
        let weights = test_weights(16, 512);
        let inputs = test_inputs(512, 2);
        let mut hw = FunctionalDaism::new(config, gemm, &weights).unwrap();
        let out = hw.execute(&inputs).unwrap();
        let reference = hw.reference(&inputs);
        for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "output {i}: {a} vs {b}");
        }
    }

    #[test]
    fn weight_shape_validated() {
        let gemm = GemmShape::new(4, 3, 5).unwrap();
        let bad_weights = vec![1.0f32; 11];
        assert!(matches!(
            FunctionalDaism::new(small_config(MultiplierConfig::PC2), gemm, &bad_weights),
            Err(ArchError::InvalidWorkload(_))
        ));
    }

    #[test]
    fn input_shape_validated() {
        let gemm = GemmShape::new(4, 3, 5).unwrap();
        let weights = test_weights(4, 3);
        let mut hw =
            FunctionalDaism::new(small_config(MultiplierConfig::PC2), gemm, &weights).unwrap();
        assert!(hw.execute(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn capacity_error_for_oversized_kernel() {
        let gemm = GemmShape::new(64, 64, 2).unwrap(); // 4096 elements
        let weights = vec![0.5f32; 64 * 64];
        assert!(matches!(
            FunctionalDaism::new(small_config(MultiplierConfig::PC2), gemm, &weights),
            Err(ArchError::KernelCapacityExceeded { .. })
        ));
    }
}

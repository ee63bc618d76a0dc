//! Fig. 5: energy break-down *per computation* for every proposed
//! mantissa multiplier vs the baseline (ref. 17)-style digital multiplier,
//! for 8 kB and 32 kB banks and both data types. The `no_tr_penalty`
//! column is the paper's "No-tr" bar segment: the extra read energy a
//! truncated configuration would pay without truncation.

use daism_core::{LineLayout, MultiplierConfig, OperandMode};
use daism_energy::{calib, components, SramMacro, TechNode};
use daism_num::FpFormat;
use std::fmt;

/// Energy-per-computation breakdown for one (config, dtype, bank) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Multiplier configuration name.
    pub config: String,
    /// Data type.
    pub dtype: String,
    /// Bank capacity in kB.
    pub bank_kb: usize,
    /// SRAM read energy per computation (pJ).
    pub memory_read_pj: f64,
    /// Address-decoder energy per computation (pJ).
    pub decoder_pj: f64,
    /// Register-file operand read per computation (pJ).
    pub rf_pj: f64,
    /// Energy truncation saves per computation (0 for full configs).
    pub no_tr_penalty_pj: f64,
}

impl Cell {
    /// Total per-computation energy (pJ).
    pub fn total_pj(&self) -> f64 {
        self.memory_read_pj + self.decoder_pj + self.rf_pj
    }

    /// Decoder share of the total.
    pub fn decoder_fraction(&self) -> f64 {
        self.decoder_pj / self.total_pj()
    }
}

/// Baseline multiplier energy per computation for one dtype.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    /// Data type.
    pub dtype: String,
    /// Multiplier logic energy (pJ) — Yin et al. scaled per Eq. (1).
    pub multiplier_pj: f64,
    /// Operand delivery energy (pJ): two RF reads + GLB share.
    pub operands_pj: f64,
}

impl BaselineCell {
    /// Total per-computation energy (pJ).
    pub fn total_pj(&self) -> f64 {
        self.multiplier_pj + self.operands_pj
    }
}

/// The full figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// One cell per (config × dtype × bank size).
    pub cells: Vec<Cell>,
    /// One baseline per dtype.
    pub baselines: Vec<BaselineCell>,
}

fn dtype_of(format: FpFormat) -> String {
    format.to_string()
}

/// Per-computation energy for one multiplier configuration on one bank.
pub fn cell(config: MultiplierConfig, format: FpFormat, bank_kb: usize) -> Cell {
    let n = format.mantissa_width();
    let bits = bank_kb * 1024 * 8;
    let side = (bits as f64).sqrt() as usize;
    let macro_model = SramMacro::new(side, side, TechNode::N45);

    // One group read serves every slot of the row.
    let slots_of =
        |config: MultiplierConfig| (side / config.stored_width(n) as usize).max(1) as f64;
    let read_pj = |config: MultiplierConfig| {
        let lines = LineLayout::new(config, OperandMode::Fp, n).expected_active_lines();
        macro_model.read_energy_pj(lines, side) / slots_of(config)
    };
    let slots = slots_of(config);
    let memory_read_pj = read_pj(config);
    let decoder_pj = components::daism_decoder_energy_pj() / slots;
    let rf_pj = components::rf_read_pj(format.total_bits()) / slots;

    // What the same bank would pay per computation without truncation
    // (the untruncated layout also fires its shift-0 line); 0 for an
    // untruncated config.
    let no_tr_penalty_pj = read_pj(MultiplierConfig { truncate: false, ..config }) - memory_read_pj;

    Cell {
        config: config.to_string(),
        dtype: dtype_of(format),
        bank_kb,
        memory_read_pj,
        decoder_pj,
        rf_pj,
        no_tr_penalty_pj,
    }
}

/// Baseline (conventional digital multiplier + operand reads) for one
/// dtype.
pub fn baseline(format: FpFormat) -> BaselineCell {
    let n = format.mantissa_width();
    let width16 = format.total_bits() as f64 / 16.0;
    BaselineCell {
        dtype: dtype_of(format),
        multiplier_pj: components::baseline_multiplier_energy_pj(n, 2 * n),
        operands_pj: (2.0 * calib::BASELINE_RF_READ_PJ_PER_16B
            + calib::BASELINE_GLB_SHARE_PJ_PER_16B)
            * width16,
    }
}

/// Runs the full Fig. 5 sweep: all Table I configs × {bf16, fp32} ×
/// {8 kB, 32 kB}, plus the two baselines. The 20 cells fan out over the
/// worker pool ([`crate::par::join_ordered`]) and come back in sweep
/// order, so the printed figure is byte-identical across thread counts.
pub fn run() -> Fig5 {
    let mut combos = Vec::new();
    for format in [FpFormat::BF16, FpFormat::FP32] {
        for config in MultiplierConfig::ALL {
            for bank_kb in [8, 32] {
                combos.push((config, format, bank_kb));
            }
        }
    }
    let cells = crate::par::join_ordered(combos.len(), |i| {
        let (config, format, bank_kb) = combos[i];
        cell(config, format, bank_kb)
    });
    Fig5 { cells, baselines: vec![baseline(FpFormat::BF16), baseline(FpFormat::FP32)] }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 5: Energy break-down per computation (pJ)")?;
        writeln!(
            f,
            "{:<10} {:<9} {:>6} {:>10} {:>9} {:>7} {:>8} {:>9}",
            "dtype", "config", "bank", "mem read", "decoder", "RF", "total", "no-tr +"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<10} {:<9} {:>4}kB {:>10.3} {:>9.4} {:>7.4} {:>8.3} {:>9.3}",
                c.dtype,
                c.config,
                c.bank_kb,
                c.memory_read_pj,
                c.decoder_pj,
                c.rf_pj,
                c.total_pj(),
                c.no_tr_penalty_pj
            )?;
        }
        writeln!(f)?;
        for b in &self.baselines {
            writeln!(
                f,
                "baseline {:<9}: multiplier {:>6.3} + operands {:>6.3} = {:>7.3} pJ",
                b.dtype,
                b.multiplier_pj,
                b.operands_pj,
                b.total_pj()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_below_half_percent_everywhere() {
        // Paper finding #1: "The cost of the address decoder is
        // negligible. It represents less than 0.5% of the energy
        // consumption in all cases."
        for c in run().cells {
            assert!(
                c.decoder_fraction() < 0.005,
                "{} {} {}kB: decoder {:.3}%",
                c.dtype,
                c.config,
                c.bank_kb,
                100.0 * c.decoder_fraction()
            );
        }
    }

    #[test]
    fn memory_read_dominates() {
        // Paper finding #2: memory read plays an important role.
        for c in run().cells {
            assert!(c.memory_read_pj / c.total_pj() > 0.8, "{} {}", c.dtype, c.config);
        }
    }

    #[test]
    fn bank_size_is_roughly_neutral() {
        // Paper finding #3: 8 kB vs 32 kB makes no major difference per
        // computation.
        let f = run();
        for format in ["bfloat16", "float32"] {
            for config in ["FLA", "PC2", "PC3", "PC2_tr", "PC3_tr"] {
                let by_bank: Vec<&Cell> =
                    f.cells.iter().filter(|c| c.dtype == format && c.config == config).collect();
                assert_eq!(by_bank.len(), 2);
                let ratio = by_bank[0].total_pj() / by_bank[1].total_pj();
                assert!((0.75..1.33).contains(&ratio), "{format}/{config}: {ratio}");
            }
        }
    }

    #[test]
    fn truncation_nearly_halves_read_energy() {
        // Paper finding #4.
        let f = run();
        let full = f
            .cells
            .iter()
            .find(|c| c.dtype == "bfloat16" && c.config == "PC3" && c.bank_kb == 32)
            .unwrap();
        let tr = f
            .cells
            .iter()
            .find(|c| c.dtype == "bfloat16" && c.config == "PC3_tr" && c.bank_kb == 32)
            .unwrap();
        let ratio = tr.memory_read_pj / full.memory_read_pj;
        assert!((0.4..0.6).contains(&ratio), "ratio {ratio}");
        // And the no-tr bar reports the difference.
        assert!(tr.no_tr_penalty_pj > 0.0);
        assert!((tr.memory_read_pj + tr.no_tr_penalty_pj - full.memory_read_pj).abs() < 1e-9);
    }

    #[test]
    fn truncated_bf16_beats_baseline() {
        // The headline energy win for the recommended configuration.
        let f = run();
        let tr = f
            .cells
            .iter()
            .find(|c| c.dtype == "bfloat16" && c.config == "PC3_tr" && c.bank_kb == 32)
            .unwrap();
        let base = &f.baselines[0];
        assert_eq!(base.dtype, "bfloat16");
        assert!(
            tr.total_pj() < base.total_pj(),
            "PC3_tr {} pJ vs baseline {} pJ",
            tr.total_pj(),
            base.total_pj()
        );
    }

    #[test]
    fn full_fp32_does_not_beat_baseline() {
        // Sanity that the win comes from truncation (and bf16), not from
        // a free lunch: untruncated fp32 reads 48 columns per product
        // and is not cheaper than the baseline.
        let f = run();
        let full = f
            .cells
            .iter()
            .find(|c| c.dtype == "float32" && c.config == "PC3" && c.bank_kb == 32)
            .unwrap();
        let base = &f.baselines[1];
        assert!(full.total_pj() > base.total_pj() * 0.8);
    }

    #[test]
    fn render_contains_all_sections() {
        let s = run().to_string();
        assert!(s.contains("mem read"));
        assert!(s.contains("baseline bfloat16"));
        assert!(s.contains("PC3_tr"));
    }
}

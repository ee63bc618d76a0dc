//! Mantissa-width sweep (extension): the paper argues the multiplier
//! handles "arbitrary-size integer mantissa" (§III-C) — this sweep
//! quantifies error and storage cost from 4-bit (FP8-class) to 24-bit
//! (float32) mantissas, showing the OR-error is essentially
//! width-independent (it lives in the top bits) while storage scales
//! linearly.

use daism_core::error_analysis::{exhaustive, monte_carlo, ErrorStats};
use daism_core::{MantissaMultiplier, MultiplierConfig, OperandMode};
use std::fmt;

/// One mantissa width's characterisation.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthPoint {
    /// Mantissa width `n` (incl. implicit one).
    pub n: u32,
    /// Example format with this mantissa (where one exists).
    pub format_name: &'static str,
    /// Error statistics (exhaustive for `n <= 12`, MC otherwise).
    pub stats: ErrorStats,
    /// Physical wordlines per group.
    pub lines: usize,
    /// Stored bits per element.
    pub stored_bits: u32,
}

/// The sweep for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatSweep {
    /// Configuration name.
    pub config: String,
    /// Points in increasing width.
    pub points: Vec<WidthPoint>,
}

fn format_name(n: u32) -> &'static str {
    match n {
        4 => "e4m3 (FP8)",
        8 => "bfloat16",
        11 => "float16",
        // TF32 keeps 10 stored mantissa bits + implicit one.
        24 => "float32",
        _ => "-",
    }
}

/// Runs the sweep over `n ∈ {4, 6, 8, 11, 16, 24}`.
pub fn run(config: MultiplierConfig, mc_samples: u64) -> FormatSweep {
    let points = [4u32, 6, 8, 11, 16, 24]
        .iter()
        .map(|&n| {
            let m = MantissaMultiplier::new(config, OperandMode::Fp, n);
            let stats = if n <= 12 { exhaustive(&m) } else { monte_carlo(&m, mc_samples, 0x5EED) };
            let layout = m.layout();
            WidthPoint {
                n,
                format_name: format_name(n),
                stats,
                lines: layout.len(),
                stored_bits: layout.stored_width(),
            }
        })
        .collect();
    FormatSweep { config: config.to_string(), points }
}

impl fmt::Display for FormatSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mantissa-width sweep for {}", self.config)?;
        writeln!(
            f,
            "{:>4} {:<12} {:>10} {:>9} {:>8} {:>7} {:>11}",
            "n", "format", "mean err", "max err", "exact%", "lines", "stored bits"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>4} {:<12} {:>9.2}% {:>8.2}% {:>7.2}% {:>7} {:>11}",
                p.n,
                p.format_name,
                p.stats.mean_rel_pct(),
                p.stats.max_rel_pct(),
                100.0 * p.stats.exact_fraction,
                p.lines,
                p.stored_bits
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_saturates_beyond_n6() {
        // The OR collisions live near the MSBs: from n = 6 up, the mean
        // error is essentially width-independent (~4-5% for PC3).
        let s = run(MultiplierConfig::PC3, 20_000);
        let means: Vec<f64> =
            s.points.iter().filter(|p| p.n >= 6).map(|p| p.stats.mean_rel).collect();
        let max = means.iter().cloned().fold(0.0f64, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.5, "means spread too far: {min}..{max}");
    }

    #[test]
    fn fp8_class_widths_benefit_disproportionately() {
        // At n = 4, PC3's pre-computed lines repair 3 of the 4 partial
        // products: the mean error collapses well below the asymptote —
        // a finding for FP8-era formats beyond the paper's scope.
        let s = run(MultiplierConfig::PC3, 20_000);
        let n4 = &s.points[0];
        let n24 = s.points.last().unwrap();
        assert_eq!(n4.n, 4);
        assert!(n4.stats.mean_rel < 0.5 * n24.stats.mean_rel);
    }

    #[test]
    fn storage_scales_linearly_with_width() {
        let s = run(MultiplierConfig::PC3_TR, 5_000);
        for w in s.points.windows(2) {
            assert!(w[1].stored_bits > w[0].stored_bits);
            assert!(w[1].lines > w[0].lines);
        }
        let fp32 = s.points.last().unwrap();
        assert_eq!(fp32.stored_bits, 24);
        assert_eq!(fp32.lines, 24); // 25 layout lines minus the zero H
    }

    #[test]
    fn small_widths_have_higher_exact_fraction() {
        let s = run(MultiplierConfig::PC3, 20_000);
        let n4 = &s.points[0];
        let n24 = s.points.last().unwrap();
        assert!(n4.stats.exact_fraction > n24.stats.exact_fraction);
    }

    #[test]
    fn render() {
        let s = run(MultiplierConfig::PC2, 2_000).to_string();
        assert!(s.contains("bfloat16"));
        assert!(s.contains("float32"));
    }
}

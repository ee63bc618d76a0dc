//! Fault-injection study (extension): how gracefully does the in-SRAM
//! multiplier degrade when cells fail? Stuck-at faults are injected at
//! increasing rates into a programmed bank and the multiplier error is
//! measured against the fault-free reference.
//!
//! Context: the paper's error-resilience argument cites the authors'
//! fault-aware scheduling work (FAWS, the paper's ref. 13); this study quantifies the
//! raw sensitivity of the OR-read to cell defects.

use daism_core::{MantissaMultiplier, MultiplierConfig, OperandMode, SramMultiplier};
use daism_sram::BankGeometry;
use std::fmt;

/// Error at one fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePoint {
    /// Faulty cells per million (of the whole bank).
    pub faults_ppm: f64,
    /// Injected fault count.
    pub faults: usize,
    /// Mean relative error vs the *fault-free approximate* result.
    pub mean_rel_vs_faultfree: f64,
    /// Fraction of multiplications whose result changed at all.
    pub affected_fraction: f64,
}

/// The study results for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStudy {
    /// Configuration studied.
    pub config: String,
    /// Points with increasing fault counts.
    pub points: Vec<RatePoint>,
}

/// Runs the sweep: a 2 kB bank fully programmed with PC3 multiplicands,
/// fault counts doubling from 4 to `max_faults`, errors measured over
/// every slot × a grid of multipliers. Deterministic (splitmix64 keyed
/// by `seed`).
pub fn run(config: MultiplierConfig, max_faults: usize, seed: u64) -> FaultStudy {
    let geom = BankGeometry::square_from_bytes(2 * 1024).expect("valid geometry");
    let n = 8u32;
    let sw = MantissaMultiplier::new(config, OperandMode::Fp, n);

    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let mut points = Vec::new();
    let mut faults = 4usize;
    while faults <= max_faults {
        let mut hw =
            SramMultiplier::new(config, OperandMode::Fp, n, geom).expect("bank fits config");
        let elements: Vec<u64> = (0..hw.capacity()).map(|_| 0x80 | (next() & 0x7F)).collect();
        let homes = hw.program_all(&elements).expect("capacity checked");
        let lines = hw.layout().len();
        for _ in 0..faults {
            let group = (next() as usize) % hw.groups();
            let line = (next() as usize) % lines;
            let slot = (next() as usize) % hw.slots();
            let bit = (next() % hw.layout().stored_width() as u64) as u32;
            let value = next() & 1 == 1;
            hw.inject_stuck_at(group, line, slot, bit, value).expect("in range");
        }

        let mut sum_rel = 0.0f64;
        let mut affected = 0u64;
        let mut samples = 0u64;
        for b in (0x80u64..=0xFF).step_by(9) {
            for (&a, &(group, slot)) in elements.iter().zip(&homes) {
                let faulty = hw.multiply(group, slot, b).expect("programmed");
                let clean = sw.multiply(a, b);
                samples += 1;
                if faulty != clean {
                    affected += 1;
                    let c = clean.max(1) as f64;
                    sum_rel += ((faulty as f64) - c).abs() / c;
                }
            }
        }
        points.push(RatePoint {
            faults_ppm: faults as f64 / geom.bits() as f64 * 1e6,
            faults,
            mean_rel_vs_faultfree: sum_rel / samples as f64,
            affected_fraction: affected as f64 / samples as f64,
        });
        faults *= 4;
    }
    FaultStudy { config: config.to_string(), points }
}

impl fmt::Display for FaultStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fault-injection study ({}, 2 kB bank, stuck-at cells)", self.config)?;
        writeln!(
            f,
            "{:>8} {:>10} {:>16} {:>14}",
            "faults", "ppm", "mean rel err", "affected muls"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>8} {:>10.0} {:>15.3}% {:>13.2}%",
                p.faults,
                p.faults_ppm,
                100.0 * p.mean_rel_vs_faultfree,
                100.0 * p.affected_fraction
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_grows_with_fault_rate() {
        let s = run(MultiplierConfig::PC3, 256, 7);
        assert!(s.points.len() >= 3);
        let first = &s.points[0];
        let last = s.points.last().unwrap();
        assert!(last.affected_fraction > first.affected_fraction);
        assert!(last.mean_rel_vs_faultfree >= first.mean_rel_vs_faultfree);
    }

    #[test]
    fn small_fault_counts_have_small_impact() {
        // A handful of stuck cells in 16 Kibit leaves most products
        // untouched — the graceful degradation the OR-read gives.
        let s = run(MultiplierConfig::PC3, 4, 11);
        let p = &s.points[0];
        assert!(p.affected_fraction < 0.25, "affected {}", p.affected_fraction);
        assert!(p.mean_rel_vs_faultfree < 0.05, "err {}", p.mean_rel_vs_faultfree);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(MultiplierConfig::PC2, 16, 3);
        let b = run(MultiplierConfig::PC2, 16, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn render() {
        let s = run(MultiplierConfig::PC3, 16, 1).to_string();
        assert!(s.contains("ppm"));
        assert!(s.contains("PC3"));
    }
}

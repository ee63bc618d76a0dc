//! Table II: DAISM (modelled) vs Z-PIM and T-PIM (published numbers) on
//! the VGG-8-layer-1 workload.

use daism_arch::{pim_refs, vgg8_layers, ArchError, DaismConfig, DaismModel};
use std::fmt;

/// The full comparison table plus the 200 MHz downscaling note.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Modelled DAISM rows (16×8 kB and 16×32 kB at 1 GHz).
    pub daism: Vec<daism_arch::Table2Row>,
    /// The same designs scaled to 200 MHz (the paper's robustness note).
    pub daism_200mhz: Vec<daism_arch::Table2Row>,
    /// Published comparator chips.
    pub pim: Vec<pim_refs::PimChip>,
}

/// Runs the Table II evaluation.
///
/// # Errors
///
/// Propagates architecture-model errors.
pub fn run() -> Result<Table2, ArchError> {
    let gemm = vgg8_layers()[0].gemm();
    let mut daism = Vec::new();
    let mut daism_200mhz = Vec::new();
    for cfg in [DaismConfig::paper_16x8kb(), DaismConfig::paper_16x32kb()] {
        daism.push(DaismModel::new(cfg.clone())?.table2_row(&gemm)?);
        let slow = DaismConfig { clock_mhz: 200.0, ..cfg };
        daism_200mhz.push(DaismModel::new(slow)?.table2_row(&gemm)?);
    }
    Ok(Table2 { daism, daism_200mhz, pim: vec![pim_refs::zpim(), pim_refs::tpim()] })
}

impl Table2 {
    /// GE-normalised area efficiency (GOPS per GE-mm²) of the best DAISM
    /// row divided by the best comparator — the paper's "two orders of
    /// magnitude" headline.
    pub fn ge_density_advantage(&self) -> f64 {
        let daism_best = self.daism.iter().map(|r| r.gops / r.ge_area_mm2).fold(0.0f64, f64::max);
        let pim_best = self.pim.iter().map(|p| p.gops.1 / p.ge_area_mm2().0).fold(0.0f64, f64::max);
        daism_best / pim_best
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table II: Performances comparison between different PIM architectures")?;
        writeln!(
            f,
            "{:<10} {:>7} {:>8} {:>7} {:>9} {:>9} {:>10} {:>9} {:>7}  notes",
            "Config",
            "Area",
            "GE-Area",
            "Clock",
            "GOPS",
            "GOPS/mW",
            "GOPS/mm2",
            "Power/mW",
            "pJ/MAC"
        )?;
        for r in &self.daism {
            writeln!(
                f,
                "{:<10} {:>7.2} {:>8.2} {:>7.0} {:>9.2} {:>9.3} {:>10.2} {:>9.0} {:>7.2}  DAISM (modelled, bit-parallel, 45nm)",
                r.config,
                r.area_mm2,
                r.ge_area_mm2,
                r.clock_mhz,
                r.gops,
                r.gops_per_mw,
                r.gops_per_mm2,
                r.avg_power_mw,
                r.pj_per_mac
            )?;
        }
        for p in &self.pim {
            let (ge_lo, ge_hi) = p.ge_area_mm2();
            let ge = if (ge_lo - ge_hi).abs() < 1e-9 {
                format!("{ge_lo:.2}")
            } else {
                format!("{ge_lo:.1}~{ge_hi:.1}")
            };
            writeln!(
                f,
                "{:<10} {:>7.2} {:>8} {:>7} {:>9} {:>9} {:>10} {:>9} {:>7}  {}, {}; published",
                p.name,
                p.area_mm2,
                ge,
                format_range(p.clock_mhz),
                format_range(p.gops),
                format_range(p.gops_per_mw),
                format_range(p.gops_per_mm2),
                "-",
                "-",
                p.note,
                p.node,
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "GE-normalised computation-density advantage (best DAISM / best comparator): {:.0}x",
            self.ge_density_advantage()
        )?;
        writeln!(f, "At 200 MHz the DAISM rows become:")?;
        for r in &self.daism_200mhz {
            writeln!(
                f,
                "  {:<10} {:>9.2} GOPS {:>10.2} GOPS/mm2",
                r.config, r.gops, r.gops_per_mm2
            )?;
        }
        Ok(())
    }
}

fn format_range((lo, hi): (f64, f64)) -> String {
    if (lo - hi).abs() < 1e-9 {
        format!("{lo:.2}")
    } else {
        format!("{lo:.2}~{hi:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_four_architectures() {
        let t = run().unwrap();
        assert_eq!(t.daism.len(), 2);
        assert_eq!(t.pim.len(), 2);
        let s = t.to_string();
        assert!(s.contains("16x8kB"));
        assert!(s.contains("16x32kB"));
        assert!(s.contains("Z-PIM"));
        assert!(s.contains("T-PIM"));
        assert!(s.contains("Power/mW") && s.contains("pJ/MAC"));
    }

    #[test]
    fn two_orders_of_magnitude_headline() {
        // Abstract: "up to two orders of magnitude higher area efficiency
        // compared to the SOTA counterparts".
        let t = run().unwrap();
        let adv = t.ge_density_advantage();
        assert!(adv > 50.0, "advantage only {adv}x");
    }

    #[test]
    fn downscaled_rows_keep_order_of_magnitude() {
        let t = run().unwrap();
        for r in &t.daism_200mhz {
            let ge_density = r.gops / r.ge_area_mm2;
            let zpim = pim_refs::zpim();
            let zpim_density = zpim.gops.1 / zpim.ge_area_mm2().0;
            assert!(ge_density > 9.0 * zpim_density);
        }
    }

    #[test]
    fn daism_gops_match_paper_within_five_percent() {
        let t = run().unwrap();
        assert!((t.daism[0].gops - 502.52).abs() / 502.52 < 0.05);
        assert!((t.daism[1].gops - 1005.04).abs() / 1005.04 < 0.05);
    }
}

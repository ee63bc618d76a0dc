use crate::area::{area, AreaReport};
use crate::config::DaismConfig;
use crate::energy::{energy_from_mapping, ArchEnergyReport};
use crate::error::ArchError;
use crate::mapper::{map_gemm, Mapping};
use crate::perf::{perf_from_mapping, PerfReport};
use crate::workload::GemmShape;
use std::fmt;

// (Table2Row is re-exported from the crate root alongside DaismModel.)

/// The top-level analytical model of one DAISM instance: validates the
/// configuration once, then answers performance/energy/area queries —
/// the role Accelergy + Timeloop play in the paper.
///
/// # Examples
///
/// ```
/// use daism_arch::{vgg8_layers, DaismConfig, DaismModel};
///
/// let model = DaismModel::new(DaismConfig::paper_16x32kb())?;
/// let gemm = vgg8_layers()[0].gemm();
/// let run = model.evaluate(&gemm)?;
/// assert!(run.perf.gops > 900.0);
/// assert!(run.area.total_mm2() > 3.0);
/// # Ok::<(), daism_arch::ArchError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DaismModel {
    config: DaismConfig,
}

/// Bundle of all three reports for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The mapping the reports were computed from.
    pub mapping: Mapping,
    /// Cycle/throughput estimates.
    pub perf: PerfReport,
    /// Energy estimates.
    pub energy: ArchEnergyReport,
    /// Area report (workload-independent).
    pub area: AreaReport,
}

impl DaismModel {
    /// Validates `config` and builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for degenerate configurations.
    pub fn new(config: DaismConfig) -> Result<Self, ArchError> {
        config.validate()?;
        Ok(DaismModel { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &DaismConfig {
        &self.config
    }

    /// Maps a GEMM onto the banks.
    ///
    /// # Errors
    ///
    /// Propagates capacity/shape errors.
    pub fn map(&self, gemm: &GemmShape) -> Result<Mapping, ArchError> {
        map_gemm(&self.config, gemm)
    }

    /// Performance estimate for a GEMM.
    ///
    /// # Errors
    ///
    /// Propagates capacity/shape errors.
    pub fn perf(&self, gemm: &GemmShape) -> Result<PerfReport, ArchError> {
        let mapping = self.map(gemm)?;
        Ok(perf_from_mapping(&self.config, gemm, &mapping))
    }

    /// Energy estimate for a GEMM.
    ///
    /// # Errors
    ///
    /// Propagates capacity/shape errors.
    pub fn energy(&self, gemm: &GemmShape) -> Result<ArchEnergyReport, ArchError> {
        let mapping = self.map(gemm)?;
        let perf = perf_from_mapping(&self.config, gemm, &mapping);
        Ok(energy_from_mapping(&self.config, gemm, &mapping, &perf))
    }

    /// Area report (workload-independent).
    pub fn area(&self) -> AreaReport {
        area(&self.config)
    }

    /// All reports at once (mapping shared across them).
    ///
    /// # Errors
    ///
    /// Propagates capacity/shape errors.
    pub fn evaluate(&self, gemm: &GemmShape) -> Result<Evaluation, ArchError> {
        let mapping = self.map(gemm)?;
        let perf = perf_from_mapping(&self.config, gemm, &mapping);
        let energy = energy_from_mapping(&self.config, gemm, &mapping, &perf);
        Ok(Evaluation { mapping, perf, energy, area: self.area() })
    }

    /// The paper's Table II row for this configuration on `gemm`:
    /// `(area mm², GE area mm², GOPS, GOPS/mW, GOPS/mm²)`, plus the
    /// average power and energy per MAC behind GOPS/mW.
    ///
    /// # Errors
    ///
    /// Propagates capacity/shape errors.
    pub fn table2_row(&self, gemm: &GemmShape) -> Result<Table2Row, ArchError> {
        let eval = self.evaluate(gemm)?;
        let area_mm2 = eval.area.total_mm2();
        let (ge_lo, _) = eval.area.ge_total_mm2();
        Ok(Table2Row {
            config: self.config.short_name(),
            area_mm2,
            ge_area_mm2: ge_lo,
            clock_mhz: self.config.clock_mhz,
            gops: eval.perf.gops,
            gops_per_mw: eval.energy.gops_per_mw,
            gops_per_mm2: eval.perf.gops / area_mm2,
            avg_power_mw: eval.energy.avg_power_mw,
            pj_per_mac: eval.energy.pj_per_mac,
        })
    }
}

/// One DAISM row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Configuration short name (e.g. `16x8kB`).
    pub config: String,
    /// Area in mm².
    pub area_mm2: f64,
    /// Gate-equivalent area in mm².
    pub ge_area_mm2: f64,
    /// Clock in MHz.
    pub clock_mhz: f64,
    /// Throughput in GOPS.
    pub gops: f64,
    /// Energy efficiency in GOPS/mW.
    pub gops_per_mw: f64,
    /// Area efficiency in GOPS/mm².
    pub gops_per_mm2: f64,
    /// Average power in mW.
    pub avg_power_mw: f64,
    /// Energy per MAC in pJ.
    pub pj_per_mac: f64,
}

impl fmt::Display for Table2Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {:>7.2} {:>7.2} {:>7.0} {:>9.2} {:>7.3} {:>9.2} {:>7.0} {:>6.2}",
            self.config,
            self.area_mm2,
            self.ge_area_mm2,
            self.clock_mhz,
            self.gops,
            self.gops_per_mw,
            self.gops_per_mm2,
            self.avg_power_mw,
            self.pj_per_mac
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pim_refs;
    use crate::workload::vgg8_layers;

    #[test]
    fn table2_daism_rows_reproduce_paper_shape() {
        let gemm = vgg8_layers()[0].gemm();
        let row8 = DaismModel::new(DaismConfig::paper_16x8kb()).unwrap().table2_row(&gemm).unwrap();
        let row32 =
            DaismModel::new(DaismConfig::paper_16x32kb()).unwrap().table2_row(&gemm).unwrap();
        // Paper: 205.68 and 237.55 GOPS/mm².
        assert!((row8.gops_per_mm2 - 205.68).abs() / 205.68 < 0.15, "{}", row8.gops_per_mm2);
        assert!((row32.gops_per_mm2 - 237.55).abs() / 237.55 < 0.15, "{}", row32.gops_per_mm2);
        // 32 kB config is more area-efficient than 8 kB (paper ordering).
        assert!(row32.gops_per_mm2 > row8.gops_per_mm2);
    }

    #[test]
    fn daism_dominates_pim_area_efficiency_by_two_orders() {
        // Table II headline: "up to two orders of magnitude higher area
        // efficiency" vs Z-PIM / T-PIM (GE-normalised).
        let gemm = vgg8_layers()[0].gemm();
        let row = DaismModel::new(DaismConfig::paper_16x32kb()).unwrap().table2_row(&gemm).unwrap();
        let ge_eff = row.gops / row.ge_area_mm2;
        let zpim = pim_refs::zpim();
        let zpim_ge_eff = zpim.gops.1 / zpim.ge_area_mm2().0;
        assert!(ge_eff > 50.0 * zpim_ge_eff, "{ge_eff} vs {zpim_ge_eff}");
        let tpim = pim_refs::tpim();
        let tpim_ge_eff = tpim.gops.1 / tpim.ge_area_mm2().0;
        assert!(ge_eff > 100.0 * tpim_ge_eff, "{ge_eff} vs {tpim_ge_eff}");
    }

    #[test]
    fn advantage_survives_200mhz_downscale() {
        // Table II discussion: "this advantage in computation density
        // remains an order of magnitude higher even if the operating
        // frequency of DAISM is scaled down to 200MHz".
        let gemm = vgg8_layers()[0].gemm();
        let cfg = DaismConfig { clock_mhz: 200.0, ..DaismConfig::paper_16x32kb() };
        let row = DaismModel::new(cfg).unwrap().table2_row(&gemm).unwrap();
        let ge_eff = row.gops / row.ge_area_mm2;
        let zpim = pim_refs::zpim();
        let zpim_ge_eff = zpim.gops.1 / zpim.ge_area_mm2().0;
        assert!(ge_eff > 10.0 * zpim_ge_eff, "{ge_eff} vs {zpim_ge_eff}");
    }

    #[test]
    fn evaluate_bundles_consistent_reports() {
        let model = DaismModel::new(DaismConfig::paper_16x8kb()).unwrap();
        let gemm = vgg8_layers()[0].gemm();
        let eval = model.evaluate(&gemm).unwrap();
        assert_eq!(eval.perf.macs, gemm.macs());
        assert!((eval.energy.gops_per_mw - model.energy(&gemm).unwrap().gops_per_mw).abs() < 1e-12);
        assert_eq!(eval.mapping.segments, 108);
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let cfg = DaismConfig { banks: 0, ..DaismConfig::paper_16x8kb() };
        assert!(DaismModel::new(cfg).is_err());
    }

    #[test]
    fn table2_row_display_is_aligned() {
        let gemm = vgg8_layers()[0].gemm();
        let row = DaismModel::new(DaismConfig::paper_16x8kb()).unwrap().table2_row(&gemm).unwrap();
        assert!(row.to_string().contains("16x8kB"));
    }
}

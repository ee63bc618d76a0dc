use crate::error::ArchError;
use daism_core::{LineLayout, MultiplierConfig, OperandMode};
use daism_num::FpFormat;
use daism_sram::BankGeometry;
use std::fmt;

/// How kernel segments are scheduled across banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapperKind {
    /// Segments assigned to banks round-robin; every bank replays its
    /// segment list for each input position. Cycles are set by the most
    /// loaded bank.
    Static,
    /// Segment-activations drawn from a shared work queue (the paper's
    /// banked design feeds "different inputs to different banks
    /// simultaneously"); cycles approach `ceil(S·N / B)`.
    #[default]
    Balanced,
}

impl fmt::Display for MapperKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapperKind::Static => write!(f, "static"),
            MapperKind::Balanced => write!(f, "balanced"),
        }
    }
}

/// Full configuration of a DAISM accelerator instance.
///
/// The *storage geometry* (lines per group, element window width) is
/// derived from the multiplier configuration by default but can be
/// overridden: the paper's published PE counts (Table II, Fig. 7) imply
/// 8-line groups with 16-bit column windows even for `PC3_tr`, i.e.
/// full-width storage windows with truncation applied to *sensing* —
/// [`DaismConfig::paper_16x8kb`] et al. encode that reading.
///
/// # Examples
///
/// ```
/// use daism_arch::DaismConfig;
///
/// let cfg = DaismConfig::paper_16x8kb();
/// assert_eq!(cfg.pes(), 256); // 16 banks x 16 slots
/// assert_eq!(cfg.peak_gops(), 512.0); // 2 ops/MAC at 1 GHz
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DaismConfig {
    /// Number of SRAM banks.
    pub banks: usize,
    /// Capacity of each bank in bytes (power of two).
    pub bank_bytes: usize,
    /// Operand floating-point format.
    pub format: FpFormat,
    /// Multiplier configuration (Table I).
    pub mult: MultiplierConfig,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Wordlines per kernel group (defaults to the line layout's count).
    pub lines_per_group: usize,
    /// Column window per stored element in bits (defaults to the stored
    /// width of the multiplier config).
    pub element_width: u32,
    /// Input scratchpad capacity in kB.
    pub input_spad_kb: usize,
    /// Output scratchpad capacity in kB.
    pub output_spad_kb: usize,
    /// Scheduling policy.
    pub mapper: MapperKind,
    /// Handle exponents per-matrix (block floating point, the paper's
    /// §IV-B) instead of per-product.
    pub block_fp: bool,
    /// Scale the supply voltage down with the clock (DVFS) instead of
    /// running reduced clocks at nominal voltage. Nominal = 1 GHz.
    pub dvfs: bool,
}

impl DaismConfig {
    /// A configuration with derived geometry: `lines_per_group` from the
    /// multiplier's line layout, `element_width` from its stored width.
    pub fn new(
        banks: usize,
        bank_bytes: usize,
        format: FpFormat,
        mult: MultiplierConfig,
        clock_mhz: f64,
    ) -> Self {
        let layout = LineLayout::new(mult, OperandMode::Fp, format.mantissa_width());
        DaismConfig {
            banks,
            bank_bytes,
            format,
            mult,
            clock_mhz,
            lines_per_group: layout.len(),
            element_width: layout.stored_width(),
            input_spad_kb: 128,
            output_spad_kb: 128,
            mapper: MapperKind::Balanced,
            block_fp: false,
            dvfs: false,
        }
    }

    /// The paper's Table II headline design: 16 × 8 kB banks, `bfloat16`
    /// `PC3_tr`, 1 GHz, 8-line groups with 16-bit windows (256 PEs).
    pub fn paper_16x8kb() -> Self {
        DaismConfig {
            lines_per_group: 8,
            element_width: 16,
            ..DaismConfig::new(16, 8 * 1024, FpFormat::BF16, MultiplierConfig::PC3_TR, 1000.0)
        }
    }

    /// The paper's Table II second design: 16 × 32 kB banks (512 PEs).
    pub fn paper_16x32kb() -> Self {
        DaismConfig { bank_bytes: 32 * 1024, ..DaismConfig::paper_16x8kb() }
    }

    /// The paper's Fig. 7 single-bank design: 1 × 512 kB (128 PEs, low
    /// utilization — the motivating bad case).
    pub fn paper_1x512kb() -> Self {
        DaismConfig { banks: 1, bank_bytes: 512 * 1024, ..DaismConfig::paper_16x8kb() }
    }

    /// Overrides the storage geometry (builder style).
    pub fn with_geometry(mut self, lines_per_group: usize, element_width: u32) -> Self {
        self.lines_per_group = lines_per_group;
        self.element_width = element_width;
        self
    }

    /// Overrides the mapper (builder style).
    pub fn with_mapper(mut self, mapper: MapperKind) -> Self {
        self.mapper = mapper;
        self
    }

    /// Validates the configuration and returns the per-bank geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if parameters are degenerate
    /// or the bank cannot hold a single group.
    pub fn validate(&self) -> Result<BankGeometry, ArchError> {
        if self.banks == 0 {
            return Err(ArchError::InvalidConfig("bank count must be non-zero".into()));
        }
        if self.clock_mhz <= 0.0 {
            return Err(ArchError::InvalidConfig("clock must be positive".into()));
        }
        let geom = BankGeometry::square_from_bytes(self.bank_bytes)
            .map_err(|e| ArchError::InvalidConfig(e.to_string()))?;
        if self.lines_per_group == 0 || self.lines_per_group > geom.rows() {
            return Err(ArchError::InvalidConfig(format!(
                "{} lines per group do not fit {} rows",
                self.lines_per_group,
                geom.rows()
            )));
        }
        if self.element_width == 0 || self.element_width as usize > geom.cols() {
            return Err(ArchError::InvalidConfig(format!(
                "element width {} does not fit {} columns",
                self.element_width,
                geom.cols()
            )));
        }
        // The layout's lines must fit inside the configured group height,
        // otherwise the decoder would address missing rows.
        let lines = self.line_layout().len();
        if lines > self.lines_per_group {
            return Err(ArchError::InvalidConfig(format!(
                "{} needs {lines} lines but groups have {}",
                self.mult, self.lines_per_group
            )));
        }
        Ok(geom)
    }

    /// The multiplier's line layout at this configuration's format.
    pub fn line_layout(&self) -> LineLayout {
        LineLayout::new(self.mult, OperandMode::Fp, self.format.mantissa_width())
    }

    /// Bank geometry (panics on invalid config; use [`validate`] first in
    /// fallible contexts).
    ///
    /// [`validate`]: DaismConfig::validate
    fn geometry(&self) -> BankGeometry {
        BankGeometry::square_from_bytes(self.bank_bytes).expect("validated capacity")
    }

    /// Kernel groups per bank.
    pub fn groups_per_bank(&self) -> usize {
        self.geometry().rows() / self.lines_per_group
    }

    /// Element slots per group — the processing elements each activation
    /// feeds ("PEs per bank").
    pub fn slots_per_bank(&self) -> usize {
        self.geometry().cols() / self.element_width as usize
    }

    /// Total processing elements (`banks × slots`), the paper's PE count.
    pub fn pes(&self) -> usize {
        self.banks * self.slots_per_bank()
    }

    /// Kernel-element storage capacity across all banks.
    pub fn kernel_capacity(&self) -> usize {
        self.banks * self.groups_per_bank() * self.slots_per_bank()
    }

    /// Columns actually sensed per activation: truncated configurations
    /// sense only the top `n` columns of each window.
    pub fn sensed_cols_per_activation(&self) -> usize {
        let sensed_per_slot =
            self.mult.stored_width(self.format.mantissa_width()).min(self.element_width) as usize;
        self.slots_per_bank() * sensed_per_slot
    }

    /// Peak throughput in GOPS (2 ops per MAC, all PEs busy).
    pub fn peak_gops(&self) -> f64 {
        2.0 * self.pes() as f64 * self.clock_mhz / 1000.0
    }

    /// Total SRAM capacity across banks, in bytes.
    pub fn total_sram_bytes(&self) -> usize {
        self.banks * self.bank_bytes
    }

    /// A short name like `16x8kB` for tables.
    pub fn short_name(&self) -> String {
        format!("{}x{}kB", self.banks, self.bank_bytes / 1024)
    }
}

impl fmt::Display for DaismConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DAISM {} ({} {} @ {} MHz, {} PEs, {} mapper)",
            self.short_name(),
            self.format,
            self.mult,
            self.clock_mhz,
            self.pes(),
            self.mapper
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_16x8kb_geometry_matches_table2() {
        let cfg = DaismConfig::paper_16x8kb();
        cfg.validate().unwrap();
        // 256x256-bit banks, 8-line groups, 16-bit windows.
        assert_eq!(cfg.groups_per_bank(), 32);
        assert_eq!(cfg.slots_per_bank(), 16);
        assert_eq!(cfg.pes(), 256);
        assert_eq!(cfg.peak_gops(), 512.0);
        assert_eq!(cfg.kernel_capacity(), 16 * 32 * 16);
    }

    #[test]
    fn paper_16x32kb_doubles_pes() {
        let cfg = DaismConfig::paper_16x32kb();
        assert_eq!(cfg.pes(), 512);
        assert_eq!(cfg.peak_gops(), 1024.0);
    }

    #[test]
    fn paper_1x512kb_matches_text() {
        // §V-C2: "the 1x512kB architecture can only use 128 kernel
        // elements at a time" and "can store up to 128x256 kernel
        // elements".
        let cfg = DaismConfig::paper_1x512kb();
        assert_eq!(cfg.slots_per_bank(), 128);
        assert_eq!(cfg.groups_per_bank(), 256);
        assert_eq!(cfg.kernel_capacity(), 128 * 256);
    }

    #[test]
    fn derived_geometry_uses_layout() {
        let cfg = DaismConfig::new(4, 8 * 1024, FpFormat::BF16, MultiplierConfig::PC3, 1000.0);
        // PC3 bf16: 9 lines, 16-bit stored width.
        assert_eq!(cfg.lines_per_group, 9);
        assert_eq!(cfg.element_width, 16);
        assert_eq!(cfg.groups_per_bank(), 256 / 9);
        cfg.validate().unwrap();
    }

    #[test]
    fn truncated_sensing_halves_columns() {
        let cfg = DaismConfig::paper_16x8kb();
        // 16 slots x 8 sensed bits (PC3_tr) = 128 of 256 columns.
        assert_eq!(cfg.sensed_cols_per_activation(), 128);
        let full = DaismConfig { mult: MultiplierConfig::PC3, ..DaismConfig::paper_16x8kb() };
        assert_eq!(full.sensed_cols_per_activation(), 256);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = DaismConfig::paper_16x8kb();
        cfg.banks = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = DaismConfig::paper_16x8kb();
        cfg.bank_bytes = 3000;
        assert!(cfg.validate().is_err());
        let mut cfg = DaismConfig::paper_16x8kb();
        cfg.clock_mhz = 0.0;
        assert!(cfg.validate().is_err());
        let cfg = DaismConfig::paper_16x8kb().with_geometry(0, 16);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn display_and_short_name() {
        let cfg = DaismConfig::paper_16x8kb();
        assert_eq!(cfg.short_name(), "16x8kB");
        let s = cfg.to_string();
        assert!(s.contains("PC3_tr"));
        assert!(s.contains("256 PEs"));
    }
}

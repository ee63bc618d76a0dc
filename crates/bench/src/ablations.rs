//! Ablations over the reproduction's design choices: mapper policy,
//! block-FP exponent handling, the PC-k ladder at the architecture
//! level, and the zero-bypass sparsity sensitivity.

use daism_arch::{vgg8_layers, ArchError, DaismConfig, DaismModel, MapperKind};
use daism_core::MultiplierConfig;
use std::fmt;

/// One ablation comparison: a named metric under two settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What is being ablated.
    pub name: String,
    /// Label and metric for the first setting.
    pub a: (String, f64),
    /// Label and metric for the second setting.
    pub b: (String, f64),
    /// Unit of the metric.
    pub unit: &'static str,
}

/// The ablation suite results.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// All comparisons.
    pub comparisons: Vec<Comparison>,
}

/// Runs the ablation suite on VGG-8 layer 1.
///
/// # Errors
///
/// Propagates architecture-model errors.
pub fn run() -> Result<Ablations, ArchError> {
    let gemm = vgg8_layers()[0].gemm();
    let mut comparisons = Vec::new();

    // 1. Mapper: balanced vs static on an unbalanced shape.
    let balanced = DaismModel::new(DaismConfig::paper_16x8kb())?.perf(&gemm)?;
    let static_cfg = DaismConfig { mapper: MapperKind::Static, ..DaismConfig::paper_16x8kb() };
    let static_perf = DaismModel::new(static_cfg)?.perf(&gemm)?;
    comparisons.push(Comparison {
        name: "mapper policy (cycles)".into(),
        a: ("balanced".into(), balanced.compute_cycles as f64),
        b: ("static".into(), static_perf.compute_cycles as f64),
        unit: "cycles",
    });

    // 2. Block-FP exponents vs per-product exponent handling.
    let per_product = DaismModel::new(DaismConfig::paper_16x8kb())?.energy(&gemm)?;
    let bfp_cfg = DaismConfig { block_fp: true, ..DaismConfig::paper_16x8kb() };
    let block_fp = DaismModel::new(bfp_cfg)?.energy(&gemm)?;
    comparisons.push(Comparison {
        name: "exponent handling (energy/MAC)".into(),
        a: ("per-product".into(), per_product.pj_per_mac),
        b: ("block-fp".into(), block_fp.pj_per_mac),
        unit: "pJ/MAC",
    });

    // 3. PC-k ladder at the architecture level: PC3_tr (8 lines) vs
    //    PC2_tr (7 lines -> more groups) vs FLA full. The three rungs
    //    are independent model builds — fan them out over the pool,
    //    rungs returned in ladder order.
    let ladder = [
        (MultiplierConfig::PC3_TR, 8usize, 16u32),
        (MultiplierConfig::PC2_TR, 7, 16),
        (MultiplierConfig::FLA, 8, 16),
    ];
    let rungs: Result<Vec<Comparison>, ArchError> = crate::par::join_ordered(ladder.len(), |i| {
        let (mult, lines, width) = ladder[i];
        let cfg = DaismConfig { mult, ..DaismConfig::paper_16x8kb() }.with_geometry(lines, width);
        let e = DaismModel::new(cfg)?.energy(&gemm)?;
        Ok(Comparison {
            name: format!("multiplier config {mult}"),
            a: ("energy/MAC".into(), e.pj_per_mac),
            b: ("GOPS/mW".into(), e.gops_per_mw),
            unit: "pJ | GOPS/mW",
        })
    })
    .into_iter()
    .collect();
    comparisons.extend(rungs?);

    // 4. Clock scaling: 1 GHz vs 200 MHz energy efficiency (leakage
    //    share grows at low clocks).
    let fast = DaismModel::new(DaismConfig::paper_16x8kb())?.energy(&gemm)?;
    let slow_cfg = DaismConfig { clock_mhz: 200.0, ..DaismConfig::paper_16x8kb() };
    let slow = DaismModel::new(slow_cfg)?.energy(&gemm)?;
    comparisons.push(Comparison {
        name: "clock scaling (GOPS/mW)".into(),
        a: ("1 GHz".into(), fast.gops_per_mw),
        b: ("200 MHz".into(), slow.gops_per_mw),
        unit: "GOPS/mW",
    });

    // 5. DVFS: the same 200 MHz point with voltage scaled to the clock
    //    (the regime Z-PIM/T-PIM actually operate in).
    let dvfs_cfg = DaismConfig { clock_mhz: 200.0, dvfs: true, ..DaismConfig::paper_16x8kb() };
    let dvfs = DaismModel::new(dvfs_cfg)?.energy(&gemm)?;
    comparisons.push(Comparison {
        name: "200 MHz supply (GOPS/mW)".into(),
        a: ("nominal 1.0V".into(), slow.gops_per_mw),
        b: ("DVFS ~0.48V".into(), dvfs.gops_per_mw),
        unit: "GOPS/mW",
    });

    Ok(Ablations { comparisons })
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablations (VGG-8 layer 1)")?;
        for c in &self.comparisons {
            writeln!(
                f,
                "{:<36} {:>14}: {:>12.2}   {:>14}: {:>12.2}   [{}]",
                c.name, c.a.0, c.a.1, c.b.0, c.b.1, c.unit
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_has_expected_entries() {
        let a = run().unwrap();
        assert!(a.comparisons.len() >= 6);
        let s = a.to_string();
        assert!(s.contains("mapper policy"));
        assert!(s.contains("block-fp"));
    }

    #[test]
    fn static_mapper_no_faster_than_balanced() {
        let a = run().unwrap();
        let mapper = a.comparisons.iter().find(|c| c.name.contains("mapper")).unwrap();
        assert!(mapper.b.1 >= mapper.a.1);
    }

    #[test]
    fn block_fp_saves_energy() {
        let a = run().unwrap();
        let exp = a.comparisons.iter().find(|c| c.name.contains("exponent")).unwrap();
        assert!(exp.b.1 < exp.a.1, "block-fp {} !< per-product {}", exp.b.1, exp.a.1);
    }
}

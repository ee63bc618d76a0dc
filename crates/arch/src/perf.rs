use crate::config::{DaismConfig, MapperKind};
use crate::error::ArchError;
use crate::mapper::{map_gemm, Mapping};
use crate::workload::GemmShape;
use std::fmt;

/// Cycle-level performance estimate for one GEMM on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Compute cycles (group activations on the critical-path bank).
    pub compute_cycles: u64,
    /// Kernel pre-load cycles (line writes, one per bank per cycle).
    pub preload_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// PE utilization: `macs / (compute_cycles · PEs)`.
    pub utilization: f64,
    /// Throughput in GOPS at the configured clock (2 ops per MAC).
    pub gops: f64,
    /// Latency in microseconds at the configured clock.
    pub latency_us: f64,
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} (+{} preload) macs={} util={:.2}% gops={:.2} latency={:.1}us",
            self.compute_cycles,
            self.preload_cycles,
            self.macs,
            100.0 * self.utilization,
            self.gops,
            self.latency_us
        )
    }
}

/// Estimates cycles/utilization/throughput for `gemm` on `config`.
///
/// Model: every cycle, each bank activates one group.
/// The kernel is pre-mapped into `S` segments ([`map_gemm`]); each
/// segment must fire once per output position (`N`), so total work is
/// `S·N` activations. The static mapper replays each bank's own segment
/// list (`cycles = N · max_segments_per_bank`); the balanced mapper
/// drains a shared queue (`cycles = ceil(S·N / B)`).
///
/// Pre-load: each kernel element writes its group's lines once, one line
/// write per bank per cycle — negligible next to compute, as the paper
/// claims (asserted in tests).
///
/// # Errors
///
/// Propagates mapping errors (capacity, invalid config/workload).
pub fn simulate_gemm(config: &DaismConfig, gemm: &GemmShape) -> Result<PerfReport, ArchError> {
    let mapping = map_gemm(config, gemm)?;
    Ok(perf_from_mapping(config, gemm, &mapping))
}

/// Performance roll-up given an existing mapping (shared by the model
/// and by ablations that tweak mappings directly).
pub fn perf_from_mapping(config: &DaismConfig, gemm: &GemmShape, mapping: &Mapping) -> PerfReport {
    let n = gemm.n as u64;
    let s = mapping.segments as u64;
    let b = config.banks as u64;
    let compute_cycles = match config.mapper {
        MapperKind::Static => n * mapping.max_segments_per_bank() as u64,
        MapperKind::Balanced => (s * n).div_ceil(b),
    };

    // One line-write port per bank: programming `elements` kernel
    // elements costs lines-per-element cycles spread over the banks.
    let line_writes = (mapping.elements * config.lines_per_group) as u64;
    let preload_cycles = line_writes.div_ceil(b);

    let macs = gemm.macs();
    let pes = config.pes() as u64;
    let utilization = macs as f64 / (compute_cycles * pes) as f64;
    let total_cycles = compute_cycles + preload_cycles;
    let seconds = total_cycles as f64 / (config.clock_mhz * 1e6);
    let gops = 2.0 * macs as f64 / seconds / 1e9;
    PerfReport {
        compute_cycles,
        preload_cycles,
        total_cycles,
        macs,
        utilization,
        gops,
        latency_us: seconds * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::vgg8_layers;

    #[test]
    fn vgg8_layer1_16x8kb_near_paper_gops() {
        // Table II: 502.52 GOPS at 1 GHz for 16x8kB. Our balanced model
        // gives 108 segments x 50176 positions / 16 banks = 338,688
        // compute cycles -> ~510 GOPS. Within 3% of the paper.
        let cfg = DaismConfig::paper_16x8kb();
        let perf = simulate_gemm(&cfg, &vgg8_layers()[0].gemm()).unwrap();
        assert_eq!(perf.compute_cycles, 338_688);
        assert!((perf.gops - 502.52).abs() / 502.52 < 0.03, "gops {}", perf.gops);
        assert!(perf.utilization > 0.99);
    }

    #[test]
    fn vgg8_layer1_16x32kb_near_paper_gops() {
        // Table II: 1005.04 GOPS for 16x32kB.
        let cfg = DaismConfig::paper_16x32kb();
        let perf = simulate_gemm(&cfg, &vgg8_layers()[0].gemm()).unwrap();
        assert!((perf.gops - 1005.04).abs() / 1005.04 < 0.04, "gops {}", perf.gops);
    }

    #[test]
    fn preload_is_negligible() {
        // §V-B2: "the cost of pre-loading data is made negligible by the
        // large operands reuse".
        let cfg = DaismConfig::paper_16x8kb();
        let perf = simulate_gemm(&cfg, &vgg8_layers()[0].gemm()).unwrap();
        assert!(
            (perf.preload_cycles as f64) < 0.01 * perf.compute_cycles as f64,
            "preload {} vs compute {}",
            perf.preload_cycles,
            perf.compute_cycles
        );
    }

    #[test]
    fn single_bank_is_much_slower() {
        // Fig. 7's left-most point: the 1x512kB design wastes half its
        // slots (M=64 vs 128) and has no bank parallelism.
        let single =
            simulate_gemm(&DaismConfig::paper_1x512kb(), &vgg8_layers()[0].gemm()).unwrap();
        let banked = simulate_gemm(&DaismConfig::paper_16x8kb(), &vgg8_layers()[0].gemm()).unwrap();
        assert!(single.compute_cycles > 3 * banked.compute_cycles);
        assert!(single.utilization < 0.6);
    }

    #[test]
    fn static_mapper_never_beats_balanced() {
        use crate::workload::GemmShape;
        let shapes = [
            vgg8_layers()[0].gemm(),
            GemmShape::new(50, 23, 100).unwrap(),
            GemmShape::new(17, 11, 333).unwrap(),
        ];
        for gemm in shapes {
            let balanced = simulate_gemm(&DaismConfig::paper_16x8kb(), &gemm).unwrap();
            let cfg_static =
                DaismConfig { mapper: MapperKind::Static, ..DaismConfig::paper_16x8kb() };
            let st = simulate_gemm(&cfg_static, &gemm).unwrap();
            assert!(st.compute_cycles >= balanced.compute_cycles, "{gemm}");
        }
    }

    #[test]
    fn gops_scales_with_clock() {
        let gemm = vgg8_layers()[0].gemm();
        let at_1ghz = simulate_gemm(&DaismConfig::paper_16x8kb(), &gemm).unwrap();
        let cfg_200 = DaismConfig { clock_mhz: 200.0, ..DaismConfig::paper_16x8kb() };
        let at_200mhz = simulate_gemm(&cfg_200, &gemm).unwrap();
        assert!((at_1ghz.gops / at_200mhz.gops - 5.0).abs() < 1e-9);
        assert_eq!(at_1ghz.total_cycles, at_200mhz.total_cycles);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        for layer in vgg8_layers() {
            let gemm = layer.gemm();
            for cfg in [DaismConfig::paper_16x8kb(), DaismConfig::paper_16x32kb()] {
                if let Ok(p) = simulate_gemm(&cfg, &gemm) {
                    assert!(p.utilization <= 1.0 + 1e-12, "{}: {}", layer.name, p.utilization);
                    assert!(p.gops <= cfg.peak_gops() * 1.01);
                }
            }
        }
    }

    #[test]
    fn display_contains_key_metrics() {
        let p = simulate_gemm(&DaismConfig::paper_16x8kb(), &vgg8_layers()[0].gemm()).unwrap();
        let s = p.to_string();
        assert!(s.contains("util"));
        assert!(s.contains("gops"));
    }
}

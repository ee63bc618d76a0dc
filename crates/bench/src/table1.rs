//! Table I: summary of the proposed multipliers, extended with the line
//! counts and expected wordline activity our implementation derives.

use daism_core::{LineLayout, MultiplierConfig, OperandMode};
use std::fmt;

/// One row of (extended) Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Configuration name (`FLA`, `PC2`, …).
    pub config: String,
    /// Pre-computed wordlines description (paper column 2).
    pub precomputed: &'static str,
    /// Truncation (paper column 3).
    pub truncation: bool,
    /// Physical wordlines per group at bf16.
    pub lines_bf16: usize,
    /// Physical wordlines per group at fp32.
    pub lines_fp32: usize,
    /// Expected active wordlines per multiply at bf16.
    pub avg_active_bf16: f64,
}

/// The table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Row>,
}

/// Builds Table I from the implementation (not hard-coded). The five
/// configurations fan out over the worker pool
/// ([`crate::par::join_ordered`]), rows returned in Table I order.
pub fn run() -> Table1 {
    let rows = crate::par::join_ordered(MultiplierConfig::ALL.len(), |i| {
        let config = MultiplierConfig::ALL[i];
        {
            let bf16 = LineLayout::new(config, OperandMode::Fp, 8);
            let fp32 = LineLayout::new(config, OperandMode::Fp, 24);
            Row {
                config: config.to_string(),
                precomputed: match config.kind {
                    daism_core::MultiplierKind::Fla => "No",
                    daism_core::MultiplierKind::Pc2 => "Between 2 PP",
                    daism_core::MultiplierKind::Pc3 => "Between 3 PP",
                },
                truncation: config.truncate,
                lines_bf16: bf16.len(),
                lines_fp32: fp32.len(),
                avg_active_bf16: bf16.expected_active_lines(),
            }
        }
    });
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table I: Summary of the proposed multipliers")?;
        writeln!(
            f,
            "{:<8} {:<14} {:<10} {:>11} {:>11} {:>14}",
            "Config", "Precomputed", "Truncation", "lines(bf16)", "lines(fp32)", "avg WL (bf16)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:<14} {:<10} {:>11} {:>11} {:>14.2}",
                r.config,
                r.precomputed,
                if r.truncation { "Yes" } else { "No" },
                r.lines_bf16,
                r.lines_fp32,
                r.avg_active_bf16
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_rows_in_paper_order() {
        let t = run();
        let names: Vec<&str> = t.rows.iter().map(|r| r.config.as_str()).collect();
        assert_eq!(names, vec!["FLA", "PC2", "PC3", "PC2_tr", "PC3_tr"]);
    }

    #[test]
    fn truncation_column_matches_paper() {
        let t = run();
        assert_eq!(
            t.rows.iter().map(|r| r.truncation).collect::<Vec<_>>(),
            vec![false, false, false, true, true]
        );
    }

    #[test]
    fn pc3_tr_fits_8_lines_at_bf16() {
        let t = run();
        let pc3tr = t.rows.iter().find(|r| r.config == "PC3_tr").unwrap();
        assert_eq!(pc3tr.lines_bf16, 8);
    }

    #[test]
    fn render_contains_all_rows() {
        let s = run().to_string();
        for name in ["FLA", "PC2_tr", "PC3_tr"] {
            assert!(s.contains(name));
        }
    }
}

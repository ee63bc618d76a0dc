use std::fmt;
use std::ops::{Add, AddAssign};

/// Access counters accumulated by [`SramBank`](crate::SramBank).
///
/// These are the raw events the `daism-energy` models price: a *group
/// activation* is one multi-wordline read (one precharge + sense cycle);
/// `wordline_activations` counts how many wordlines fired across all
/// activations (the decoder energy term); `bitlines_sensed` counts the
/// columns sensed by those OR reads (the dominant read-energy term).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessStats {
    /// Single-wordline word writes.
    pub writes: u64,
    /// Bits written by those writes.
    pub bits_written: u64,
    /// Multi-wordline (wired-OR) read operations.
    pub or_reads: u64,
    /// Total wordlines activated across all OR reads.
    pub wordline_activations: u64,
    /// Total bitline columns sensed across all OR reads.
    pub bitlines_sensed: u64,
}

impl AccessStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Average number of wordlines per OR read (0 if none happened).
    pub fn avg_wordlines_per_or_read(&self) -> f64 {
        if self.or_reads == 0 {
            0.0
        } else {
            self.wordline_activations as f64 / self.or_reads as f64
        }
    }
}

impl Add for AccessStats {
    type Output = AccessStats;

    fn add(self, rhs: AccessStats) -> AccessStats {
        AccessStats {
            writes: self.writes + rhs.writes,
            bits_written: self.bits_written + rhs.bits_written,
            or_reads: self.or_reads + rhs.or_reads,
            wordline_activations: self.wordline_activations + rhs.wordline_activations,
            bitlines_sensed: self.bitlines_sensed + rhs.bitlines_sensed,
        }
    }
}

impl AddAssign for AccessStats {
    fn add_assign(&mut self, rhs: AccessStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "writes={} ({} bits), OR reads={} ({} wordlines, {} bitlines)",
            self.writes,
            self.bits_written,
            self.or_reads,
            self.wordline_activations,
            self.bitlines_sensed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = AccessStats::new();
        assert_eq!(s.writes, 0);
        assert_eq!(s.avg_wordlines_per_or_read(), 0.0);
    }

    #[test]
    fn add_accumulates() {
        let a = AccessStats {
            writes: 1,
            bits_written: 8,
            or_reads: 3,
            wordline_activations: 9,
            bitlines_sensed: 48,
        };
        let b = AccessStats { writes: 10, ..Default::default() };
        let c = a + b;
        assert_eq!(c.writes, 11);
        assert_eq!(c.wordline_activations, 9);
        assert_eq!(c.avg_wordlines_per_or_read(), 3.0);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = AccessStats { writes: 5, ..Default::default() };
        s.reset();
        assert_eq!(s, AccessStats::default());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!AccessStats::new().to_string().is_empty());
    }
}

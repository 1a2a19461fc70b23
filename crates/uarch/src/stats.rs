//! Counters and derived metrics (MPKI, coverage, speedup).

use std::fmt;

/// Misses (or other events) per kilo-instruction.
///
/// The paper reports L1-I, BTB and CBP miss rates in MPKI throughout.
///
/// # Example
///
/// ```
/// use ignite_uarch::stats::mpki;
///
/// assert_eq!(mpki(37, 1000), 37.0);
/// assert_eq!(mpki(0, 0), 0.0);
/// ```
pub fn mpki(events: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        events as f64 * 1000.0 / instructions as f64
    }
}

/// Fraction `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Speedup of `cycles` relative to `baseline_cycles` (both for equal work).
///
/// Returns 1.0 when either input is zero to keep aggregate reporting sane.
pub fn speedup(baseline_cycles: u64, cycles: u64) -> f64 {
    if cycles == 0 || baseline_cycles == 0 {
        1.0
    } else {
        baseline_cycles as f64 / cycles as f64
    }
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Hit/miss counters shared by the cache-like structures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Demand lookups.
    pub lookups: u64,
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
}

impl AccessStats {
    /// Records a lookup with the given outcome and returns the outcome.
    #[inline]
    pub fn record(&mut self, hit: bool) -> bool {
        self.lookups += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.lookups)
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lookups, {} hits, {} misses ({:.1}% hit rate)",
            self.lookups,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_basic() {
        assert!((mpki(26, 2000) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
    }

    #[test]
    fn speedup_basic() {
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
        assert_eq!(speedup(0, 10), 1.0);
        assert_eq!(speedup(10, 0), 1.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn access_stats_record_and_merge() {
        let mut s = AccessStats::default();
        assert!(s.record(true));
        assert!(!s.record(false));
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);

        let mut t = AccessStats::default();
        t.record(true);
        t.merge(&s);
        assert_eq!(t.lookups, 3);
        assert_eq!(t.hits, 2);
    }

    #[test]
    fn display_not_empty() {
        let s = AccessStats::default();
        assert!(!format!("{s}").is_empty());
    }
}

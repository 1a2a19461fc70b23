//! Counters and derived metrics (MPKI, hit rate).

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

    /// Hit rate in `[0, 1]`; 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
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
    fn access_stats_record_and_merge() {
        let mut s = AccessStats::default();
        assert_eq!(s.hit_rate(), 0.0, "no lookups, no hits");
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

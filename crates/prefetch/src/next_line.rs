//! Aggressive tagged next-line L1-I prefetcher (the paper's baseline).
//!
//! Triggers on an L1-I demand miss *and* on a demand hit to a line that was
//! brought in by a prefetch (tagged propagation), issuing prefetches for the
//! following `degree` sequential lines (§5.3 "Baseline (NL)").

use ignite_uarch::addr::{Addr, LINE_BYTES};
use ignite_uarch::cache::FillKind;
use ignite_uarch::hierarchy::{AccessResult, Hierarchy};
use ignite_uarch::Cycle;

/// Next-line prefetcher.
///
/// # Example
///
/// ```
/// use ignite_prefetch::next_line::NextLine;
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::config::UarchConfig;
/// use ignite_uarch::hierarchy::{AccessResult, Hierarchy};
///
/// let mut h = Hierarchy::new(&UarchConfig::ice_lake_like().hierarchy);
/// let mut nl = NextLine::new(2);
/// let bytes = nl.trigger(Addr::new(0x1000), 0, &mut h);
/// assert!(bytes > 0, "two cold next lines fetched from memory");
/// assert!(h.probe_l1i(Addr::new(0x1040)));
/// ```
#[derive(Debug, Clone)]
pub struct NextLine {
    degree: usize,
    issued: u64,
    triggered: u64,
}

impl NextLine {
    /// Creates a prefetcher issuing `degree` sequential lines per trigger.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        NextLine { degree, issued: 0, triggered: 0 }
    }

    /// Prefetch degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Prefetches issued (after dedup/MSHR drops).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Trigger events observed.
    pub fn triggered(&self) -> u64 {
        self.triggered
    }

    /// Fires the prefetcher for a trigger access to `line`.
    ///
    /// Returns the bytes this trigger pulled from DRAM (for bandwidth
    /// accounting).
    pub fn trigger(&mut self, line: Addr, now: Cycle, hierarchy: &mut Hierarchy) -> u64 {
        let mut bytes = 0;
        self.trigger_observed(line, now, hierarchy, |_, r| bytes += r.bytes_from_memory);
        bytes
    }

    /// Like [`NextLine::trigger`], but hands each issued prefetch with its
    /// line address to `observe`, in line order, so callers (e.g.
    /// Jukebox's off-chip-miss recorder) can observe the fills without a
    /// list being built per trigger.
    pub fn trigger_observed(
        &mut self,
        line: Addr,
        now: Cycle,
        hierarchy: &mut Hierarchy,
        mut observe: impl FnMut(Addr, AccessResult),
    ) {
        self.triggered += 1;
        for i in 1..=self.degree as u64 {
            let next = line.line() + i * LINE_BYTES;
            if let Some(result) = hierarchy.prefetch_l1i(next, now, FillKind::Prefetch) {
                self.issued += 1;
                observe(next, result);
            }
        }
    }

    /// Clears statistics.
    pub fn reset_stats(&mut self) {
        self.issued = 0;
        self.triggered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_uarch::config::UarchConfig;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&UarchConfig::tiny_for_tests().hierarchy)
    }

    #[test]
    fn prefetches_degree_lines() {
        let mut h = hierarchy();
        let mut nl = NextLine::new(3);
        nl.trigger(Addr::new(0x1000), 0, &mut h);
        assert!(h.probe_l1i(Addr::new(0x1040)));
        assert!(h.probe_l1i(Addr::new(0x1080)));
        assert!(h.probe_l1i(Addr::new(0x10c0)));
        assert!(!h.probe_l1i(Addr::new(0x1100)));
        assert_eq!(nl.issued(), 3);
    }

    #[test]
    fn resident_lines_not_reissued() {
        let mut h = hierarchy();
        let mut nl = NextLine::new(1);
        nl.trigger(Addr::new(0x1000), 0, &mut h);
        let issued_before = nl.issued();
        nl.trigger(Addr::new(0x1000), 100_000, &mut h);
        assert_eq!(nl.issued(), issued_before, "next line already resident");
    }

    #[test]
    fn counts_memory_bytes() {
        let mut h = hierarchy();
        let mut nl = NextLine::new(2);
        let bytes = nl.trigger(Addr::new(0x2000), 0, &mut h);
        assert_eq!(bytes, 128, "two cold lines from memory");
    }

    #[test]
    fn reset_stats() {
        let mut nl = NextLine::new(1);
        let mut h = hierarchy();
        nl.trigger(Addr::new(0x1000), 0, &mut h);
        nl.reset_stats();
        assert_eq!(nl.issued(), 0);
        assert_eq!(nl.triggered(), 0);
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_panics() {
        NextLine::new(0);
    }
}

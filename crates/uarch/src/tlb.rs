//! Instruction TLB.
//!
//! Ignite's replay translates each restored branch PC through the MMU, which
//! the paper notes "effectively serving as an I-TLB prefetcher" (§4.2). The
//! model is a set-associative TLB of 4 KiB page entries with a fixed
//! page-walk latency charged on misses.

use crate::addr::{Addr, PAGE_BYTES};
use crate::cache::{CacheGeometry, FillKind, SetAssocCache};
use crate::Cycle;

/// ITLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Page-walk latency charged on a miss, in cycles.
    pub walk_latency: Cycle,
}

/// An instruction TLB.
///
/// # Example
///
/// ```
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::tlb::{Itlb, TlbConfig};
///
/// let mut tlb = Itlb::new(&TlbConfig { entries: 128, ways: 8, walk_latency: 50 });
/// assert_eq!(tlb.translate(Addr::new(0x1234)), 50); // cold: page walk
/// assert_eq!(tlb.translate(Addr::new(0x1ff0)), 0);  // same page: hit
/// ```
#[derive(Debug, Clone)]
pub struct Itlb {
    entries: SetAssocCache,
    walk_latency: Cycle,
    misses_walked: u64,
}

impl Itlb {
    /// Creates an empty ITLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways`.
    pub fn new(cfg: &TlbConfig) -> Self {
        let geometry = CacheGeometry {
            size_bytes: cfg.entries as u64 * PAGE_BYTES,
            ways: cfg.ways,
            line_bytes: PAGE_BYTES,
        };
        Itlb {
            entries: SetAssocCache::new(geometry),
            walk_latency: cfg.walk_latency,
            misses_walked: 0,
        }
    }

    /// Translates `addr`, returning the added latency (0 on a hit, the walk
    /// latency on a miss). The mapping is installed on a miss.
    pub fn translate(&mut self, addr: Addr) -> Cycle {
        if self.entries.lookup(addr.page()) {
            0
        } else {
            self.misses_walked += 1;
            self.entries.fill(addr.page(), FillKind::Demand);
            self.walk_latency
        }
    }

    /// Installs a translation without charging latency (replay warm-up).
    pub fn warm(&mut self, addr: Addr) {
        if !self.entries.probe(addr.page()) {
            self.entries.fill(addr.page(), FillKind::Restore);
        }
    }

    /// Whether a translation for `addr` is resident (no side effects).
    pub fn probe(&self, addr: Addr) -> bool {
        self.entries.probe(addr.page())
    }

    /// Demand lookups that required a page walk.
    pub fn walks(&self) -> u64 {
        self.misses_walked
    }

    /// Demand lookup count.
    pub fn lookups(&self) -> u64 {
        self.entries.stats().demand.lookups
    }

    /// Invalidates all translations (lukewarm flush).
    pub fn flush(&mut self) {
        self.entries.invalidate_all();
    }

    /// Clears statistics, keeping translations.
    pub fn reset_stats(&mut self) {
        self.entries.reset_stats();
        self.misses_walked = 0;
    }

    /// Returns the ITLB to its [`Itlb::new`] state without reallocating.
    pub fn reset(&mut self) {
        self.flush();
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Itlb {
        Itlb::new(&TlbConfig { entries: 16, ways: 4, walk_latency: 50 })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tlb();
        assert_eq!(t.translate(Addr::new(0x5000)), 50);
        assert_eq!(t.translate(Addr::new(0x5fff)), 0);
        assert_eq!(t.walks(), 1);
    }

    #[test]
    fn distinct_pages_walk_separately() {
        let mut t = tlb();
        assert_eq!(t.translate(Addr::new(0x1000)), 50);
        assert_eq!(t.translate(Addr::new(0x2000)), 50);
        assert_eq!(t.walks(), 2);
    }

    #[test]
    fn warm_avoids_walk() {
        let mut t = tlb();
        t.warm(Addr::new(0x9000));
        assert_eq!(t.translate(Addr::new(0x9abc)), 0);
        assert_eq!(t.walks(), 0);
    }

    #[test]
    fn flush_forgets() {
        let mut t = tlb();
        t.translate(Addr::new(0x1000));
        t.flush();
        assert_eq!(t.translate(Addr::new(0x1000)), 50);
    }

    #[test]
    fn capacity_eviction() {
        let mut t = tlb();
        // 16 entries; touch 17 pages mapping across sets — the first page of
        // the same set must eventually be evicted.
        for i in 0..64u64 {
            t.translate(Addr::new(i * PAGE_BYTES));
        }
        assert_eq!(t.translate(Addr::new(0)), 50, "oldest page evicted");
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut t = tlb();
        assert!(!t.probe(Addr::new(0x4000)));
        assert_eq!(t.lookups(), 0);
        t.warm(Addr::new(0x4000));
        assert!(t.probe(Addr::new(0x4000)));
    }
}

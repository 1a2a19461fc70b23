//! Generic set-associative cache with true-LRU replacement.
//!
//! Used for the L1-I, L2 and LLC instruction paths and (with page-sized
//! "lines") the ITLB. Each line carries bookkeeping bits needed by the
//! paper's accounting:
//!
//! * `prefetched` — the line was filled by a prefetcher and has not yet
//!   served a demand access (used for Fig. 9c overprediction accounting).
//! * `restored` — the line was filled by Ignite's replay engine.
//! * `touched` — the line has served at least one demand access.

use crate::addr::Addr;
use crate::stats::AccessStats;

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, non-power-of-two
    /// line size, or a capacity not divisible into whole sets).
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache must have at least one way");
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways as u64) && lines > 0,
            "capacity {} is not a whole number of {}-way sets",
            self.size_bytes,
            self.ways
        );
        (lines / self.ways as u64) as usize
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize
    }
}

/// How a line came to be filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillKind {
    /// Filled on a demand miss.
    Demand,
    /// Filled by a hardware prefetcher.
    Prefetch,
    /// Filled by Ignite's replay (bulk restoration).
    Restore,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// Line number (address / line size); doubles as the tag.
    line_number: u64,
    valid: bool,
    lru_stamp: u64,
    prefetched: bool,
    restored: bool,
    touched: bool,
}

/// Details of a demand hit (see [`SetAssocCache::lookup_hit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// The line was installed by a prefetcher and this is its first use.
    pub was_prefetched: bool,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Base address of the evicted line.
    pub addr: Addr,
    /// The line was prefetched (or restored) and never served a demand access.
    pub was_unused_prefetch: bool,
    /// The line was installed by Ignite's replay.
    pub was_restored: bool,
}

/// Counters for one cache instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Demand access counters.
    pub demand: AccessStats,
    /// Lines filled on demand misses.
    pub demand_fills: u64,
    /// Lines filled by prefetch (includes restore fills).
    pub prefetch_fills: u64,
    /// Demand accesses that hit a line still marked prefetched (first use of
    /// a prefetched line — "covered" misses).
    pub prefetch_hits: u64,
    /// Evictions of valid lines.
    pub evictions: u64,
    /// Evictions of prefetched lines that were never demanded (overprediction).
    pub unused_prefetch_evictions: u64,
    /// Of those, evictions of lines installed by Ignite's replay.
    pub unused_restore_evictions: u64,
}

/// Result of flushing a cache (end-of-invocation sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Valid lines discarded.
    pub valid_lines: u64,
    /// Prefetched lines never demanded before the flush (overprediction).
    pub unused_prefetched: u64,
    /// Restored (Ignite) lines never demanded before the flush.
    pub unused_restored: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// # Example
///
/// ```
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::cache::{CacheGeometry, FillKind, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheGeometry { size_bytes: 1024, ways: 2, line_bytes: 64 });
/// let a = Addr::new(0x1000);
/// assert!(!c.lookup(a));
/// c.fill(a, FillKind::Demand);
/// assert!(c.lookup(a));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: usize,
    /// `sets - 1` when the set count is a power of two (the common case),
    /// letting [`SetAssocCache::set_of`] mask instead of divide;
    /// `u64::MAX` otherwise.
    set_mask: u64,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
    /// Valid lines that are `restored` and not `touched`, kept current at
    /// every fill, hit, eviction and flush so reading it scans nothing.
    unused_restored: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheGeometry::sets`]).
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        SetAssocCache {
            geometry,
            sets,
            set_mask: if sets.is_power_of_two() { sets as u64 - 1 } else { u64::MAX },
            lines: vec![Line::default(); sets * geometry.ways],
            clock: 0,
            stats: CacheStats::default(),
            unused_restored: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn line_number(&self, addr: Addr) -> u64 {
        addr.as_u64() / self.geometry.line_bytes
    }

    #[inline]
    fn set_of(&self, line_number: u64) -> usize {
        if self.set_mask != u64::MAX {
            (line_number & self.set_mask) as usize
        } else {
            (line_number % self.sets as u64) as usize
        }
    }

    /// The contiguous slice of ways backing `line_number`'s set, plus the
    /// index of its first way. Scanning this slice directly (instead of
    /// indexing `self.lines[i]` per way) keeps the associative search
    /// bounds-check-free.
    #[inline]
    fn set_slice(&self, line_number: u64) -> (usize, &[Line]) {
        let base = self.set_of(line_number) * self.geometry.ways;
        (base, &self.lines[base..base + self.geometry.ways])
    }

    fn find(&self, line_number: u64) -> Option<usize> {
        let (base, set) = self.set_slice(line_number);
        set.iter().position(|l| l.valid && l.line_number == line_number).map(|i| base + i)
    }

    /// Demand access. Updates LRU, statistics and the per-line touch bit.
    ///
    /// Returns `true` on a hit.
    pub fn lookup(&mut self, addr: Addr) -> bool {
        self.lookup_hit(addr).is_some()
    }

    /// Demand access returning hit details (`None` on a miss).
    ///
    /// `was_prefetched` is true on the *first* demand access to a line a
    /// prefetcher installed — the trigger condition of a tagged next-line
    /// prefetcher.
    pub fn lookup_hit(&mut self, addr: Addr) -> Option<HitInfo> {
        let ln = self.line_number(addr);
        self.clock += 1;
        match self.find(ln) {
            Some(i) => {
                let line = &mut self.lines[i];
                line.lru_stamp = self.clock;
                let was_prefetched = line.prefetched;
                if line.prefetched {
                    self.stats.prefetch_hits += 1;
                    line.prefetched = false;
                }
                if line.restored && !line.touched {
                    self.unused_restored -= 1;
                }
                line.touched = true;
                self.stats.demand.record(true);
                Some(HitInfo { was_prefetched })
            }
            None => {
                self.stats.demand.record(false);
                None
            }
        }
    }

    /// Checks residency without updating LRU state or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        self.find(self.line_number(addr)).is_some()
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    ///
    /// Filling a line that is already resident refreshes its LRU position;
    /// a demand fill of a prefetched resident line clears its prefetch mark.
    pub fn fill(&mut self, addr: Addr, kind: FillKind) -> Option<Evicted> {
        let ln = self.line_number(addr);
        self.clock += 1;
        match kind {
            FillKind::Demand => self.stats.demand_fills += 1,
            FillKind::Prefetch | FillKind::Restore => self.stats.prefetch_fills += 1,
        }
        if let Some(i) = self.find(ln) {
            let line = &mut self.lines[i];
            line.lru_stamp = self.clock;
            if kind == FillKind::Demand {
                if line.restored && !line.touched {
                    self.unused_restored -= 1;
                }
                line.prefetched = false;
                line.touched = true;
            }
            return None;
        }
        // First invalid way, else the way with the oldest LRU stamp (first
        // of equals — the same victim `min_by_key` over `(valid, stamp)`
        // tuples would pick, without tuple-compare overhead per way).
        let (base, set) = self.set_slice(ln);
        let mut victim_in_set = 0;
        let mut oldest = u64::MAX;
        for (i, l) in set.iter().enumerate() {
            if !l.valid {
                victim_in_set = i;
                break;
            }
            if l.lru_stamp < oldest {
                oldest = l.lru_stamp;
                victim_in_set = i;
            }
        }
        let victim = base + victim_in_set;
        let evicted = if self.lines[victim].valid {
            self.stats.evictions += 1;
            let old = self.lines[victim];
            let unused = (old.prefetched || old.restored) && !old.touched;
            if unused {
                self.stats.unused_prefetch_evictions += 1;
                if old.restored {
                    self.stats.unused_restore_evictions += 1;
                    self.unused_restored -= 1;
                }
            }
            Some(Evicted {
                addr: Addr::new(old.line_number * self.geometry.line_bytes),
                was_unused_prefetch: unused,
                was_restored: old.restored,
            })
        } else {
            None
        };
        self.lines[victim] = Line {
            line_number: ln,
            valid: true,
            lru_stamp: self.clock,
            prefetched: matches!(kind, FillKind::Prefetch | FillKind::Restore),
            restored: kind == FillKind::Restore,
            touched: kind == FillKind::Demand,
        };
        if kind == FillKind::Restore {
            self.unused_restored += 1;
        }
        evicted
    }

    /// Invalidates every line, reporting unused prefetched/restored lines.
    pub fn invalidate_all(&mut self) -> FlushReport {
        let mut report = FlushReport::default();
        for line in &mut self.lines {
            if line.valid {
                report.valid_lines += 1;
                if (line.prefetched || line.restored) && !line.touched {
                    report.unused_prefetched += 1;
                    if line.restored {
                        report.unused_restored += 1;
                    }
                }
            }
            *line = Line::default();
        }
        debug_assert_eq!(report.unused_restored, self.unused_restored);
        self.unused_restored = 0;
        report
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Resident lines installed by Ignite's replay and never demanded yet
    /// (end-of-invocation overprediction accounting).
    pub fn unused_restored_resident(&self) -> u64 {
        self.unused_restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets x 2 ways x 64 B = 256 B.
        SetAssocCache::new(CacheGeometry { size_bytes: 256, ways: 2, line_bytes: 64 })
    }

    /// Addresses that map to set 0 of the small cache.
    fn set0_addr(i: u64) -> Addr {
        Addr::new(i * 2 * 64)
    }

    #[test]
    fn geometry_sets() {
        let g = CacheGeometry { size_bytes: 32 * 1024, ways: 8, line_bytes: 64 };
        assert_eq!(g.sets(), 64);
        assert_eq!(g.lines(), 512);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn geometry_rejects_ragged_sets() {
        CacheGeometry { size_bytes: 100, ways: 3, line_bytes: 64 }.sets();
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = Addr::new(0x1000);
        assert!(!c.lookup(a));
        c.fill(a, FillKind::Demand);
        assert!(c.lookup(a));
        assert_eq!(c.stats().demand.hits, 1);
        assert_eq!(c.stats().demand.misses, 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = small();
        c.fill(Addr::new(0x1000), FillKind::Demand);
        assert!(c.lookup(Addr::new(0x103f)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        let (a, b, d) = (set0_addr(1), set0_addr(2), set0_addr(3));
        c.fill(a, FillKind::Demand);
        c.fill(b, FillKind::Demand);
        c.lookup(a); // refresh a; b is now LRU
        let evicted = c.fill(d, FillKind::Demand).expect("must evict");
        assert_eq!(evicted.addr, b.line());
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn invalid_ways_fill_before_eviction() {
        let mut c = small();
        assert!(c.fill(set0_addr(1), FillKind::Demand).is_none());
        assert!(c.fill(set0_addr(2), FillKind::Demand).is_none());
        assert!(c.fill(set0_addr(3), FillKind::Demand).is_some());
    }

    #[test]
    fn prefetch_hit_accounting() {
        let mut c = small();
        c.fill(Addr::new(0x40), FillKind::Prefetch);
        assert!(c.lookup(Addr::new(0x40)));
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second demand hit no longer counts as a prefetch hit.
        assert!(c.lookup(Addr::new(0x40)));
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn unused_prefetch_eviction_accounting() {
        let mut c = small();
        c.fill(set0_addr(1), FillKind::Prefetch);
        c.fill(set0_addr(2), FillKind::Demand);
        let e = c.fill(set0_addr(3), FillKind::Demand).expect("evicts the unused prefetch");
        assert!(e.was_unused_prefetch);
        assert_eq!(c.stats().unused_prefetch_evictions, 1);
    }

    #[test]
    fn demanded_prefetch_is_not_unused() {
        let mut c = small();
        c.fill(set0_addr(1), FillKind::Prefetch);
        c.lookup(set0_addr(1));
        c.fill(set0_addr(2), FillKind::Demand);
        let e = c.fill(set0_addr(3), FillKind::Demand).expect("evicts");
        assert!(!e.was_unused_prefetch);
    }

    #[test]
    fn restore_fill_tracked() {
        let mut c = small();
        c.fill(set0_addr(1), FillKind::Restore);
        let report = c.invalidate_all();
        assert_eq!(report.valid_lines, 1);
        assert_eq!(report.unused_prefetched, 1);
        assert_eq!(report.unused_restored, 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = small();
        c.fill(Addr::new(0x40), FillKind::Demand);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(Addr::new(0x40)));
    }

    #[test]
    fn refill_refreshes_lru() {
        let mut c = small();
        let (a, b, d) = (set0_addr(1), set0_addr(2), set0_addr(3));
        c.fill(a, FillKind::Demand);
        c.fill(b, FillKind::Demand);
        c.fill(a, FillKind::Demand); // refresh, not duplicate
        assert_eq!(c.occupancy(), 2);
        c.fill(d, FillKind::Demand);
        assert!(c.probe(a), "refreshed line must survive");
        assert!(!c.probe(b));
    }

    #[test]
    fn demand_fill_clears_prefetch_mark() {
        let mut c = small();
        c.fill(set0_addr(1), FillKind::Prefetch);
        c.fill(set0_addr(1), FillKind::Demand);
        let report = c.invalidate_all();
        assert_eq!(report.unused_prefetched, 0);
    }
}

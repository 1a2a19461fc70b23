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
//!
//! # State layout
//!
//! A way costs 9 bytes, held in two parallel arrays:
//!
//! * one `u64` word: bits 0–47 hold the full line number (an [`Addr`] is
//!   48 bits wide, so any line size fits), bits 48–60 the generation the
//!   line was filled in, and bits 61–63 the prefetched, restored and
//!   touched flags;
//! * one `u8` LRU rank: among a set's valid ways, 0 is the most recently
//!   used and `valid - 1` the least. [`CacheGeometry::sets`] allows at
//!   most 256 ways, so a rank always fits.
//!
//! A lookup compares each word, flags masked off, with one key: the line
//! number joined with the current generation. A 20-way set scan reads
//! 160 bytes. A touch moves the way to rank 0 and ages every way ranked
//! before it; a way's rank is meaningless while it is invalid and is
//! rewritten when it is filled. The victim is the first invalid way,
//! else the way ranked last.
//!
//! Both arrays cover only the filled prefix: sets `0..=h`, where `h` is
//! the highest set filled since the cache was built. A new cache holds
//! no way. A lookup or probe of a set past the prefix misses without
//! allocating; a fill there extends both arrays with zeroed (hence
//! invalid) ways up to its set. Growth at least doubles the capacity,
//! so it is amortized, but never past `sets × ways`: a cache that fills
//! every set holds exactly the arrays a full-size layout would.
//!
//! The prefix stays short for the suite's code. Its images sit 16 MiB
//! apart from `0x40_0000`, a multiple of every Table 2 set period (L2
//! 64 KiB, LLC 512 KiB), so every image's code starts at set 0 and a
//! function fills the sets its code spans from there: the suite fills
//! at most a few hundred of the LLC's 8,192 sets. Code at other bases
//! keeps less of the saving, but never costs more than the full arrays.
//!
//! # Generation flush
//!
//! A word is valid only while its generation equals the cache's.
//! [`SetAssocCache::invalidate_all`] bumps the generation, which
//! invalidates every line without writing one. Only when the 13-bit
//! generation wraps does it zero the words for real, once every
//! `GENERATIONS - 1` flushes ([`SetAssocCache::GENERATIONS`]).
//! Generations start at 1, so zeroed ways, fresh or swept, hold no
//! valid line.

use crate::addr::{Addr, VA_BITS};
use crate::stats::AccessStats;

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (at most 256).
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero or more than 256 ways,
    /// non-power-of-two line size, or a capacity not divisible into whole
    /// sets).
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache must have at least one way");
        assert!(self.ways <= 256, "cache must have at most 256 ways");
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

/// Bit position of a word's generation field.
const GEN_SHIFT: u32 = VA_BITS;
/// One generation step, in place in the word.
const GEN_ONE: u64 = 1 << GEN_SHIFT;
/// The word's generation field.
const GEN_MASK: u64 = (SetAssocCache::GENERATIONS - 1) << GEN_SHIFT;
/// The line was prefetched (or restored) and has served no demand access.
const PREFETCHED: u64 = 1 << 61;
/// The line was installed by Ignite's replay.
const RESTORED: u64 = 1 << 62;
/// The line has served a demand access.
const TOUCHED: u64 = 1 << 63;
/// Line number and generation: what a lookup compares.
const KEY_MASK: u64 = PREFETCHED - 1;
/// The word's line-number field.
const LINE_MASK: u64 = GEN_ONE - 1;
const _: () = assert!(GEN_MASK | LINE_MASK == KEY_MASK, "fields must tile the key");

/// Makes `way` the most recently used of a set with LRU ranks `ranks`
/// (0 = most recent). Every way ranked before `rank` (the way's old rank,
/// or `u8::MAX` for a way that was invalid) ages by one. The BTB ranks its
/// ways the same way.
#[inline]
pub(crate) fn lru_promote(ranks: &mut [u8], way: usize, rank: u8) {
    // Branch-free, so the loop compiles to a few vector compares.
    for r in ranks.iter_mut() {
        *r += u8::from(*r < rank);
    }
    ranks[way] = 0;
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
/// c.invalidate_all();
/// assert!(!c.probe(a));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// `sets - 1` when the set count is a power of two (the common case),
    /// letting [`SetAssocCache::set_of`] mask instead of divide;
    /// `u64::MAX` otherwise.
    set_mask: u64,
    sets: usize,
    /// `log2(line_bytes)`: a line number is an address shifted right by it.
    line_shift: u32,
    /// One word per way, set-major, for the filled prefix of sets (see
    /// the module docs for its fields).
    words: Vec<u64>,
    /// One LRU rank per way, parallel to `words`.
    ranks: Vec<u8>,
    /// The current generation, in place in the word (`gen * GEN_ONE`).
    generation: u64,
    stats: CacheStats,
    /// Valid lines that are `restored` and not `touched`, kept current at
    /// every fill, hit, eviction and flush so reading it scans nothing.
    unused_restored: u64,
}

impl SetAssocCache {
    /// Generations a word can name. Generation 0 is never current, so
    /// [`SetAssocCache::invalidate_all`] sweeps every line once per
    /// `GENERATIONS - 1` calls.
    pub const GENERATIONS: u64 = 1 << 13;

    /// Creates an empty cache with the given geometry. It allocates no
    /// way until its first fill (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheGeometry::sets`]).
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        SetAssocCache {
            geometry,
            set_mask: if sets.is_power_of_two() { sets as u64 - 1 } else { u64::MAX },
            sets,
            line_shift: geometry.line_bytes.trailing_zeros(),
            words: Vec::new(),
            ranks: Vec::new(),
            generation: GEN_ONE,
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
        addr.as_u64() >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line_number: u64) -> usize {
        if self.set_mask != u64::MAX {
            (line_number & self.set_mask) as usize
        } else {
            (line_number % self.sets as u64) as usize
        }
    }

    #[inline]
    fn is_valid(&self, word: u64) -> bool {
        word & GEN_MASK == self.generation
    }

    /// The index of the first way of `line_number`'s set, and the way
    /// within the set holding that line, if it is resident. A set past
    /// the filled prefix holds no line.
    #[inline]
    fn find(&self, line_number: u64) -> (usize, Option<usize>) {
        let base = self.set_of(line_number) * self.geometry.ways;
        let key = line_number | self.generation;
        let set = self.words.get(base..base + self.geometry.ways);
        (base, set.and_then(|set| set.iter().position(|&w| w & KEY_MASK == key)))
    }

    /// Extends the filled prefix with zeroed, hence invalid, ways to
    /// `len` ways, reserving at least double the old capacity but never
    /// more than the whole cache's ways.
    #[cold]
    fn grow(&mut self, len: usize) {
        let capacity = self.words.capacity();
        if len > capacity {
            let target = len.max(2 * capacity).min(self.sets * self.geometry.ways);
            self.words.reserve_exact(target - self.words.len());
            self.ranks.reserve_exact(target - self.ranks.len());
        }
        self.words.resize(len, 0);
        self.ranks.resize(len, 0);
    }

    /// Makes `way` of the set at `base` the most recently used
    /// ([`lru_promote`]).
    #[inline]
    fn promote(&mut self, base: usize, way: usize, rank: u8) {
        lru_promote(&mut self.ranks[base..base + self.geometry.ways], way, rank);
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
        let (base, way) = self.find(self.line_number(addr));
        let Some(way) = way else {
            self.stats.demand.record(false);
            return None;
        };
        let i = base + way;
        let was_prefetched = self.demand(i);
        if was_prefetched {
            self.stats.prefetch_hits += 1;
        }
        self.promote(base, way, self.ranks[i]);
        self.stats.demand.record(true);
        Some(HitInfo { was_prefetched })
    }

    /// Marks the line in way `i` as demanded: clears its prefetch mark and
    /// sets its touch bit. Returns whether it was still marked prefetched.
    #[inline]
    fn demand(&mut self, i: usize) -> bool {
        let word = self.words[i];
        if word & (RESTORED | TOUCHED) == RESTORED {
            self.unused_restored -= 1;
        }
        self.words[i] = (word & !PREFETCHED) | TOUCHED;
        word & PREFETCHED != 0
    }

    /// Checks residency without updating LRU state or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        self.find(self.line_number(addr)).1.is_some()
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    ///
    /// Filling a line that is already resident refreshes its LRU position;
    /// a demand fill of a prefetched resident line clears its prefetch mark.
    pub fn fill(&mut self, addr: Addr, kind: FillKind) -> Option<Evicted> {
        let ln = self.line_number(addr);
        match kind {
            FillKind::Demand => self.stats.demand_fills += 1,
            FillKind::Prefetch | FillKind::Restore => self.stats.prefetch_fills += 1,
        }
        let (base, way) = self.find(ln);
        if let Some(way) = way {
            let i = base + way;
            if kind == FillKind::Demand {
                self.demand(i);
            }
            self.promote(base, way, self.ranks[i]);
            return None;
        }
        if self.words.len() < base + self.geometry.ways {
            self.grow(base + self.geometry.ways);
        }
        // First invalid way, else the way ranked last: a full set's valid
        // ranks are exactly 0..ways.
        let set = &self.words[base..base + self.geometry.ways];
        let (way, rank, evicted) = match set.iter().position(|&w| !self.is_valid(w)) {
            Some(way) => (way, u8::MAX, None),
            None => {
                let last = (self.geometry.ways - 1) as u8;
                let way = self.ranks[base..base + self.geometry.ways]
                    .iter()
                    .position(|&r| r == last)
                    .expect("a full set ranks one way last");
                (way, last, Some(self.evict(self.words[base + way])))
            }
        };
        let flags = match kind {
            FillKind::Demand => TOUCHED,
            FillKind::Prefetch => PREFETCHED,
            FillKind::Restore => {
                self.unused_restored += 1;
                PREFETCHED | RESTORED
            }
        };
        self.words[base + way] = ln | self.generation | flags;
        self.promote(base, way, rank);
        evicted
    }

    /// Accounts the eviction of the valid line `word`.
    fn evict(&mut self, word: u64) -> Evicted {
        self.stats.evictions += 1;
        let restored = word & RESTORED != 0;
        let unused = word & (PREFETCHED | RESTORED) != 0 && word & TOUCHED == 0;
        if unused {
            self.stats.unused_prefetch_evictions += 1;
            if restored {
                self.stats.unused_restore_evictions += 1;
                self.unused_restored -= 1;
            }
        }
        Evicted {
            addr: Addr::new((word & LINE_MASK) << self.line_shift),
            was_unused_prefetch: unused,
            was_restored: restored,
        }
    }

    /// Invalidates every line (the lukewarm flush) by starting a new
    /// generation; writes no line except when the generation wraps.
    pub fn invalidate_all(&mut self) {
        self.generation += GEN_ONE;
        if self.generation == Self::GENERATIONS * GEN_ONE {
            self.words.fill(0);
            self.generation = GEN_ONE;
        }
        self.unused_restored = 0;
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.words.iter().filter(|&&w| self.is_valid(w)).count()
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
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.unused_restored_resident(), 1);
        c.fill(set0_addr(2), FillKind::Demand);
        let e = c.fill(set0_addr(3), FillKind::Demand).expect("evicts the restored line");
        assert!(e.was_unused_prefetch);
        assert!(e.was_restored);
        assert_eq!(c.stats().unused_restore_evictions, 1);
        assert_eq!(c.unused_restored_resident(), 0);
    }

    #[test]
    fn flush_forgets_unused_restored_lines() {
        let mut c = small();
        c.fill(set0_addr(1), FillKind::Restore);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.unused_restored_resident(), 0);
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

    /// 8 sets x 4 ways x 64 B, and the address of line `tag` of `set`.
    fn eight_sets() -> (SetAssocCache, impl Fn(u64, u64) -> Addr) {
        let c =
            SetAssocCache::new(CacheGeometry { size_bytes: 8 * 4 * 64, ways: 4, line_bytes: 64 });
        (c, |set, tag| Addr::new((tag * 8 + set) * 64))
    }

    /// Lengths and capacities of both arrays.
    fn footprint(c: &SetAssocCache) -> [usize; 4] {
        [c.words.len(), c.words.capacity(), c.ranks.len(), c.ranks.capacity()]
    }

    #[test]
    fn filling_one_set_allocates_one_sets_ways() {
        let (mut c, at) = eight_sets();
        assert_eq!(footprint(&c), [0; 4], "a new cache holds no way");
        c.fill(at(0, 1), FillKind::Demand);
        assert_eq!(footprint(&c), [4; 4]);
        for tag in 2..7 {
            c.fill(at(0, tag), FillKind::Prefetch);
        }
        assert_eq!(footprint(&c), [4; 4], "refilling set 0 grows nothing");
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn lookups_past_the_filled_prefix_miss_and_allocate_nothing() {
        let (mut c, at) = eight_sets();
        for set in 0..8 {
            assert!(!c.lookup(at(set, 1)));
            assert!(!c.probe(at(set, 1)));
        }
        assert_eq!(footprint(&c), [0; 4]);
        c.fill(at(1, 1), FillKind::Restore);
        let filled = footprint(&c);
        assert_eq!(filled[0], 2 * 4, "a fill covers the sets up to its own");
        for set in 2..8 {
            assert_eq!(c.lookup_hit(at(set, 1)), None);
            assert!(!c.probe(at(set, 1)));
        }
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(footprint(&c), filled);
        assert_eq!(c.stats().demand.misses, 8 + 6);
    }

    #[test]
    fn filling_every_set_ends_at_exactly_the_whole_cache() {
        // 5 sets x 3 ways: doubling 3 -> 6 -> 12 -> 24 would overshoot 15.
        let geometry = CacheGeometry { size_bytes: 5 * 3 * 64, ways: 3, line_bytes: 64 };
        for order in [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]] {
            let mut c = SetAssocCache::new(geometry);
            for set in order {
                c.fill(Addr::new(set * 64), FillKind::Demand);
                let [_, words, _, ranks] = footprint(&c);
                assert!(words <= 15 && ranks <= 15, "capacity past the cache: {words}, {ranks}");
            }
            assert_eq!(footprint(&c), [15; 4], "fill order {order:?}");
            assert_eq!(c.occupancy(), 5);
        }
    }

    #[test]
    fn demand_fill_clears_prefetch_mark() {
        let mut c = small();
        c.fill(set0_addr(1), FillKind::Prefetch);
        c.fill(set0_addr(1), FillKind::Demand);
        c.fill(set0_addr(2), FillKind::Demand);
        let e = c.fill(set0_addr(3), FillKind::Demand).expect("evicts the demanded line");
        assert_eq!(e.addr, set0_addr(1));
        assert!(!e.was_unused_prefetch);
    }
}

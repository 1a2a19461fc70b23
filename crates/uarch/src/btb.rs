//! Branch target buffer.
//!
//! A set-associative BTB holding taken branches, matching the paper's
//! simulated configuration (Table 2: 12 K entries, 6-way). Two properties
//! matter to Ignite:
//!
//! * **Insertion-on-taken-commit** — modern CPUs allocate BTB entries only
//!   when a taken branch commits (§4, citing IBM z15/z14). The engine calls
//!   [`Btb::insert`] at commit of taken branches; every insertion is logged
//!   so Ignite's recorder can observe it ([`Btb::drain_insertions`]).
//! * **Restored-entry tracking** — entries installed by Ignite's replay carry
//!   a `restored` bit, cleared on first access or eviction; a live counter of
//!   restored-but-untouched entries drives replay throttling (§4.2).
//!
//! Full branch PCs are stored (rather than the 12-bit partial tags of the
//! real hardware) so that recorded metadata is exact; the paper's gem5 model
//! does the same. Partial-tag aliasing is not modelled.
//!
//! # State layout
//!
//! A way costs 17 bytes, held in three parallel arrays like the caches'
//! ([`crate::cache`]):
//!
//! * one `u64` key word: bits 0–47 hold the branch PC, bits 48–60 the
//!   generation the entry was inserted in, bit 61 the restored flag and
//!   bit 62 the touched flag;
//! * one `u64` target word: bits 0–47 hold the target, bits 48–50 the
//!   [`BranchKind::code`];
//! * one `u8` LRU rank: among a set's valid ways, 0 is the most recently
//!   used and `valid - 1` the least.
//!
//! A lookup compares each key word, flags masked off, with the PC joined
//! with the current generation, so a 6-way set scan reads 48 bytes. The
//! victim is the first invalid way, else the way ranked last. A flush
//! bumps the generation and writes no way, except when the 13-bit
//! generation wraps ([`Btb::GENERATIONS`]).

use crate::addr::{Addr, VA_BITS, VA_MASK};
use crate::cache::lru_promote;
use crate::stats::AccessStats;

/// Classification of control-flow-changing instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct jump.
    Unconditional,
    /// Direct call.
    Call,
    /// Return.
    Return,
    /// Indirect jump or call.
    Indirect,
}

impl BranchKind {
    /// Whether the branch consults the conditional predictor.
    pub const fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }

    /// Compact 3-bit encoding used by Ignite's metadata codec.
    pub const fn code(self) -> u8 {
        match self {
            BranchKind::Conditional => 0,
            BranchKind::Unconditional => 1,
            BranchKind::Call => 2,
            BranchKind::Return => 3,
            BranchKind::Indirect => 4,
        }
    }

    /// Decodes a [`BranchKind::code`] value.
    pub const fn from_code(code: u8) -> Option<BranchKind> {
        match code {
            0 => Some(BranchKind::Conditional),
            1 => Some(BranchKind::Unconditional),
            2 => Some(BranchKind::Call),
            3 => Some(BranchKind::Return),
            4 => Some(BranchKind::Indirect),
            _ => None,
        }
    }

    /// All branch kinds, in `code` order.
    pub const ALL: [BranchKind; 5] = [
        BranchKind::Conditional,
        BranchKind::Unconditional,
        BranchKind::Call,
        BranchKind::Return,
        BranchKind::Indirect,
    ];
}

/// One BTB entry: a taken branch and its most recent target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BtbEntry {
    /// Address of the branch instruction.
    pub branch_pc: Addr,
    /// Address the branch jumped to.
    pub target: Addr,
    /// Branch classification.
    pub kind: BranchKind,
}

impl BtbEntry {
    /// Creates an entry.
    pub const fn new(branch_pc: Addr, target: Addr, kind: BranchKind) -> Self {
        BtbEntry { branch_pc, target, kind }
    }
}

/// BTB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total number of entries (Table 2: 12 K).
    pub entries: usize,
    /// Associativity (Table 2: 6).
    pub ways: usize,
}

impl BtbConfig {
    fn sets(&self) -> usize {
        assert!(
            self.ways > 0 && self.entries.is_multiple_of(self.ways),
            "entries must divide into ways"
        );
        assert!(self.ways <= 256, "at most 256 ways");
        self.entries / self.ways
    }
}

/// Bit position of a key word's generation field.
const GEN_SHIFT: u32 = VA_BITS;
/// One generation step, in place in the key word.
const GEN_ONE: u64 = 1 << GEN_SHIFT;
/// The key word's generation field.
const GEN_MASK: u64 = (Btb::GENERATIONS - 1) << GEN_SHIFT;
/// The entry was installed by Ignite's replay and has served no lookup.
const RESTORED: u64 = 1 << 61;
/// The entry has served a demand lookup.
const TOUCHED: u64 = 1 << 62;
/// Branch PC and generation: what a lookup compares.
const KEY_MASK: u64 = RESTORED - 1;
const _: () = assert!(GEN_MASK | VA_MASK == KEY_MASK, "fields must tile the key");
/// Bit position of a target word's kind code.
const KIND_SHIFT: u32 = VA_BITS;

/// BTB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Demand lookups (front-end branch identification).
    pub demand: AccessStats,
    /// Entries inserted at commit (new allocations, not target updates).
    pub insertions: u64,
    /// Entries inserted by Ignite's replay.
    pub replay_insertions: u64,
    /// Valid entries evicted.
    pub evictions: u64,
    /// Restored entries evicted without ever being accessed (overprediction).
    pub restored_evicted_untouched: u64,
    /// Restored entries that served at least one demand lookup (covered).
    pub restored_used: u64,
}

/// A set-associative branch target buffer with LRU replacement.
///
/// # Example
///
/// ```
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::btb::{BranchKind, Btb, BtbConfig, BtbEntry};
///
/// let mut btb = Btb::new(&BtbConfig { entries: 1024, ways: 4 });
/// let entry = BtbEntry::new(Addr::new(0x100), Addr::new(0x900), BranchKind::Call);
/// btb.insert(entry, false);
/// assert_eq!(btb.lookup(Addr::new(0x100)), Some(entry));
/// assert_eq!(btb.drain_insertions().collect::<Vec<_>>(), vec![entry]);
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two (the common case),
    /// letting [`Btb::set_of`] mask instead of divide; `u64::MAX` otherwise.
    set_mask: u64,
    /// One key word per way, set-major (see the module docs).
    keys: Vec<u64>,
    /// One target word per way, parallel to `keys`.
    targets: Vec<u64>,
    /// One LRU rank per way, parallel to `keys`.
    ranks: Vec<u8>,
    /// The current generation, in place in the key word (`gen * GEN_ONE`).
    generation: u64,
    insert_log: Vec<BtbEntry>,
    restored_untouched: u64,
    stats: BtbStats,
}

impl Btb {
    /// Generations a key word can name. Generation 0 is never current, so
    /// [`Btb::flush`] sweeps every way once per `GENERATIONS - 1` calls.
    pub const GENERATIONS: u64 = 1 << 13;

    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways`, or `ways` is zero
    /// or above 256.
    pub fn new(cfg: &BtbConfig) -> Self {
        let sets = cfg.sets();
        Btb {
            sets,
            ways: cfg.ways,
            set_mask: if sets.is_power_of_two() { sets as u64 - 1 } else { u64::MAX },
            keys: vec![0; cfg.entries],
            targets: vec![0; cfg.entries],
            ranks: vec![0; cfg.entries],
            generation: GEN_ONE,
            insert_log: Vec::new(),
            restored_untouched: 0,
            stats: BtbStats::default(),
        }
    }

    /// Returns the BTB to its [`Btb::new`] state — empty, zeroed
    /// statistics — without reallocating its ways.
    pub fn reset(&mut self) {
        self.flush();
        self.reset_stats();
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &BtbStats {
        &self.stats
    }

    /// Clears statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = BtbStats::default();
    }

    /// Live count of replay-restored entries that have not yet been accessed.
    ///
    /// This is the counter Ignite's prefetch throttling reads (§4.2).
    pub fn restored_untouched(&self) -> u64 {
        self.restored_untouched
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| self.is_valid(k)).count()
    }

    #[inline]
    fn is_valid(&self, key: u64) -> bool {
        key & GEN_MASK == self.generation
    }

    #[inline]
    fn set_of(&self, pc: Addr) -> usize {
        // Drop the low two bits (instruction alignment) and fold in higher
        // bits so densely packed branch regions spread across sets.
        let v = pc.as_u64() >> 2;
        let h = v ^ (v >> 11) ^ (v >> 23);
        if self.set_mask != u64::MAX {
            (h & self.set_mask) as usize
        } else {
            (h % self.sets as u64) as usize
        }
    }

    /// The index of the first way of `pc`'s set, and the way within the
    /// set holding `pc`, if it is resident.
    #[inline]
    fn find(&self, pc: Addr) -> (usize, Option<usize>) {
        let base = self.set_of(pc) * self.ways;
        let key = pc.as_u64() | self.generation;
        let way = self.keys[base..base + self.ways].iter().position(|&k| k & KEY_MASK == key);
        (base, way)
    }

    /// The entry held in way `i`.
    #[inline]
    fn entry(&self, i: usize) -> BtbEntry {
        let target = self.targets[i];
        BtbEntry {
            branch_pc: Addr::new(self.keys[i]),
            target: Addr::new(target),
            kind: BranchKind::ALL[(target >> KIND_SHIFT) as usize],
        }
    }

    /// Makes `way` of the set at `base` the most recently used
    /// ([`lru_promote`]).
    #[inline]
    fn promote(&mut self, base: usize, way: usize, rank: u8) {
        lru_promote(&mut self.ranks[base..base + self.ways], way, rank);
    }

    /// Demand lookup by branch PC.
    ///
    /// Updates LRU, clears the restored bit and records statistics.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
        self.lookup_traced(pc).map(|(entry, _)| entry)
    }

    /// Demand lookup that also reports whether the hit entry was installed
    /// by Ignite's replay and had not been demand-accessed before.
    ///
    /// The restored bit is cleared by the lookup (like [`Btb::lookup`]), so
    /// this is the only way for the engine to learn, at prediction time,
    /// that it is acting on replayed — possibly stale — state.
    pub fn lookup_traced(&mut self, pc: Addr) -> Option<(BtbEntry, bool)> {
        let (base, way) = self.find(pc);
        let Some(way) = way else {
            self.stats.demand.record(false);
            return None;
        };
        let i = base + way;
        let key = self.keys[i];
        let was_restored = key & RESTORED != 0;
        if key & (RESTORED | TOUCHED) == RESTORED {
            self.restored_untouched -= 1;
            self.stats.restored_used += 1;
        }
        self.keys[i] = (key & !RESTORED) | TOUCHED;
        self.promote(base, way, self.ranks[i]);
        self.stats.demand.record(true);
        Some((self.entry(i), was_restored))
    }

    /// Residency check without side effects.
    pub fn probe(&self, pc: Addr) -> Option<BtbEntry> {
        let (base, way) = self.find(pc);
        way.map(|way| self.entry(base + way))
    }

    /// Inserts (or updates) an entry, evicting the set's LRU way if needed.
    ///
    /// `from_replay` marks entries installed by Ignite's replay engine; only
    /// ordinary insertions are appended to the insertion log that Ignite's
    /// recorder drains. Returns the evicted entry, if any.
    pub fn insert(&mut self, entry: BtbEntry, from_replay: bool) -> Option<BtbEntry> {
        let target = entry.target.as_u64() | u64::from(entry.kind.code()) << KIND_SHIFT;
        let (base, way) = self.find(entry.branch_pc);
        if let Some(way) = way {
            // Target (or kind) update of an existing entry: no allocation,
            // nothing recorded — the paper records creation events only.
            self.targets[base + way] = target;
            self.promote(base, way, self.ranks[base + way]);
            return None;
        }
        let mut key = entry.branch_pc.as_u64() | self.generation;
        if from_replay {
            self.stats.replay_insertions += 1;
            self.restored_untouched += 1;
            key |= RESTORED;
        } else {
            self.stats.insertions += 1;
            self.insert_log.push(entry);
        }
        // First invalid way, else the way ranked last: a full set's valid
        // ranks are exactly 0..ways.
        let set = &self.keys[base..base + self.ways];
        let (way, rank, evicted) = match set.iter().position(|&k| !self.is_valid(k)) {
            Some(way) => (way, u8::MAX, None),
            None => {
                let last = (self.ways - 1) as u8;
                let way = self.ranks[base..base + self.ways]
                    .iter()
                    .position(|&r| r == last)
                    .expect("a full set ranks one way last");
                (way, last, Some(self.evict(base + way)))
            }
        };
        self.keys[base + way] = key;
        self.targets[base + way] = target;
        self.promote(base, way, rank);
        evicted
    }

    /// Accounts the eviction of the valid entry in way `i`.
    fn evict(&mut self, i: usize) -> BtbEntry {
        self.stats.evictions += 1;
        if self.keys[i] & (RESTORED | TOUCHED) == RESTORED {
            self.restored_untouched -= 1;
            self.stats.restored_evicted_untouched += 1;
        }
        self.entry(i)
    }

    /// Drains the log of committed-branch insertions since the last drain,
    /// keeping its allocation for the next ones.
    ///
    /// Ignite's record logic calls this each cycle to observe BTB allocation
    /// events (§4.1).
    #[inline]
    pub fn drain_insertions(&mut self) -> std::vec::Drain<'_, BtbEntry> {
        self.insert_log.drain(..)
    }

    /// Invalidates every entry (lukewarm flush) by starting a new
    /// generation; writes no way except when the generation wraps.
    pub fn flush(&mut self) {
        self.generation += GEN_ONE;
        if self.generation == Self::GENERATIONS * GEN_ONE {
            self.keys.fill(0);
            self.generation = GEN_ONE;
        }
        self.restored_untouched = 0;
        self.insert_log.clear();
    }

    /// Iterates over all valid entries (inspection/tests).
    pub fn iter(&self) -> impl Iterator<Item = BtbEntry> + '_ {
        (0..self.keys.len()).filter(|&i| self.is_valid(self.keys[i])).map(|i| self.entry(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btb() -> Btb {
        Btb::new(&BtbConfig { entries: 8, ways: 2 }) // 4 sets x 2 ways
    }

    fn entry(pc: u64, target: u64) -> BtbEntry {
        BtbEntry::new(Addr::new(pc), Addr::new(target), BranchKind::Conditional)
    }

    #[test]
    fn branch_kind_codes_roundtrip() {
        for kind in BranchKind::ALL {
            assert_eq!(BranchKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(BranchKind::from_code(7), None);
    }

    #[test]
    fn insert_then_lookup() {
        let mut b = btb();
        let e = entry(0x10, 0x99);
        b.insert(e, false);
        assert_eq!(b.lookup(Addr::new(0x10)), Some(e));
        assert_eq!(b.stats().demand.hits, 1);
    }

    #[test]
    fn miss_recorded() {
        let mut b = btb();
        assert_eq!(b.lookup(Addr::new(0x44)), None);
        assert_eq!(b.stats().demand.misses, 1);
    }

    #[test]
    fn insertion_log_excludes_replay() {
        let mut b = btb();
        b.insert(entry(0x10, 0x99), false);
        b.insert(entry(0x14, 0x88), true);
        let log: Vec<_> = b.drain_insertions().collect();
        assert_eq!(log, vec![entry(0x10, 0x99)]);
        assert_eq!(b.drain_insertions().len(), 0, "drain consumes");
    }

    #[test]
    fn target_update_not_logged_again() {
        let mut b = btb();
        b.insert(entry(0x10, 0x99), false);
        b.drain_insertions();
        b.insert(entry(0x10, 0xaa), false);
        assert_eq!(b.drain_insertions().len(), 0);
        assert_eq!(b.probe(Addr::new(0x10)).unwrap().target, Addr::new(0xaa));
        assert_eq!(b.stats().insertions, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut b = btb();
        // Set index is (pc >> 2) % 4: 0x0, 0x10, 0x20 all land in set 0.
        b.insert(entry(0x0, 1), false);
        b.insert(entry(0x10, 2), false);
        b.lookup(Addr::new(0x0));
        let evicted = b.insert(entry(0x20, 3), false);
        assert_eq!(evicted.map(|e| e.branch_pc), Some(Addr::new(0x10)));
    }

    #[test]
    fn restored_untouched_counter_tracks_touch() {
        let mut b = btb();
        b.insert(entry(0x10, 1), true);
        b.insert(entry(0x14, 2), true);
        assert_eq!(b.restored_untouched(), 2);
        b.lookup(Addr::new(0x10));
        assert_eq!(b.restored_untouched(), 1);
        assert_eq!(b.stats().restored_used, 1);
        // A second access does not decrement again.
        b.lookup(Addr::new(0x10));
        assert_eq!(b.restored_untouched(), 1);
    }

    #[test]
    fn restored_untouched_counter_tracks_eviction() {
        let mut b = btb();
        b.insert(entry(0x0, 1), true);
        b.insert(entry(0x10, 2), true);
        assert_eq!(b.restored_untouched(), 2);
        b.insert(entry(0x20, 3), false); // evicts a restored, untouched entry
        assert_eq!(b.restored_untouched(), 1);
        assert_eq!(b.stats().restored_evicted_untouched, 1);
    }

    #[test]
    fn lookup_traced_reports_restored_once() {
        let mut b = btb();
        b.insert(entry(0x10, 1), true);
        b.insert(entry(0x14, 2), false);
        assert_eq!(b.lookup_traced(Addr::new(0x10)), Some((entry(0x10, 1), true)));
        // The first lookup consumed the restored bit.
        assert_eq!(b.lookup_traced(Addr::new(0x10)), Some((entry(0x10, 1), false)));
        assert_eq!(b.lookup_traced(Addr::new(0x14)), Some((entry(0x14, 2), false)));
        assert_eq!(b.lookup_traced(Addr::new(0x44)), None);
    }

    #[test]
    fn flush_clears_state_and_counter() {
        let mut b = btb();
        b.insert(entry(0x10, 1), true);
        b.flush();
        assert_eq!(b.restored_untouched(), 0);
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.lookup(Addr::new(0x10)), None);
    }

    #[test]
    fn iter_yields_valid_entries() {
        let mut b = btb();
        b.insert(entry(0x10, 1), false);
        b.insert(entry(0x21, 2), false);
        let pcs: Vec<_> = b.iter().map(|e| e.branch_pc.as_u64()).collect();
        assert_eq!(pcs.len(), 2);
        assert!(pcs.contains(&0x10) && pcs.contains(&0x21));
    }

    #[test]
    #[should_panic(expected = "entries must divide")]
    fn bad_geometry_panics() {
        Btb::new(&BtbConfig { entries: 7, ways: 2 });
    }
}

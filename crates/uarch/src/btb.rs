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

use crate::addr::Addr;
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
        self.entries / self.ways
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    valid: bool,
    entry: BtbEntry,
    lru_stamp: u64,
    restored: bool,
    touched: bool,
    /// Owning VM when tagging is enabled (Arm FEAT_CSV2-style, §4.4).
    vm: u16,
}

impl Default for Way {
    fn default() -> Self {
        Way {
            valid: false,
            entry: BtbEntry::new(Addr::NULL, Addr::NULL, BranchKind::Unconditional),
            lru_stamp: 0,
            restored: false,
            touched: false,
            vm: 0,
        }
    }
}

/// BTB statistics.
#[derive(Debug, Clone, Copy, Default)]
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
/// assert_eq!(btb.drain_insertions(), vec![entry]);
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two (the common case),
    /// letting [`Btb::set_of`] mask instead of divide; `u64::MAX` otherwise.
    set_mask: u64,
    storage: Vec<Way>,
    clock: u64,
    insert_log: Vec<BtbEntry>,
    restored_untouched: u64,
    /// VM tagging (Arm FEAT_CSV2 analog, §4.4): when enabled, entries are
    /// only visible to the VM that installed them — including entries
    /// injected by Ignite's replay, which closes the cross-VM speculative
    /// side channel the paper discusses.
    vm_tagging: bool,
    current_vm: u16,
    stats: BtbStats,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways`.
    pub fn new(cfg: &BtbConfig) -> Self {
        let sets = cfg.sets();
        let mut btb = Btb {
            sets,
            ways: cfg.ways,
            set_mask: if sets.is_power_of_two() { sets as u64 - 1 } else { u64::MAX },
            storage: Vec::new(),
            clock: 0,
            insert_log: Vec::new(),
            restored_untouched: 0,
            vm_tagging: false,
            current_vm: 0,
            stats: BtbStats::default(),
        };
        btb.reset();
        btb
    }

    /// Returns the BTB to its [`Btb::new`] state — empty, untagged, zeroed
    /// statistics — without reallocating its ways.
    pub fn reset(&mut self) {
        self.flush();
        self.clock = 0;
        self.vm_tagging = false;
        self.current_vm = 0;
        self.reset_stats();
    }

    /// Enables VM tagging (§4.4): lookups match only entries installed by
    /// the currently running VM, so replayed entries from one VM are not
    /// executable by another.
    pub fn enable_vm_tagging(&mut self) {
        self.vm_tagging = true;
    }

    /// Sets the currently running VM's tag.
    pub fn set_vm(&mut self, vm: u16) {
        self.current_vm = vm;
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
        self.storage.iter().filter(|w| w.valid).count()
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

    /// The contiguous slice of ways backing `pc`'s set, plus the index of
    /// its first way. Scanning this slice directly keeps the associative
    /// search bounds-check-free.
    #[inline]
    fn set_slice(&self, pc: Addr) -> (usize, &[Way]) {
        let base = self.set_of(pc) * self.ways;
        (base, &self.storage[base..base + self.ways])
    }

    fn find(&self, pc: Addr) -> Option<usize> {
        let (base, set) = self.set_slice(pc);
        set.iter()
            .position(|w| {
                w.valid && w.entry.branch_pc == pc && (!self.vm_tagging || w.vm == self.current_vm)
            })
            .map(|i| base + i)
    }

    fn note_touch(&mut self, i: usize) {
        let way = &mut self.storage[i];
        if way.restored && !way.touched {
            self.restored_untouched = self.restored_untouched.saturating_sub(1);
            self.stats.restored_used += 1;
        }
        way.restored = false;
        way.touched = true;
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
        self.clock += 1;
        match self.find(pc) {
            Some(i) => {
                let was_restored = self.storage[i].restored;
                self.storage[i].lru_stamp = self.clock;
                self.note_touch(i);
                self.stats.demand.record(true);
                Some((self.storage[i].entry, was_restored))
            }
            None => {
                self.stats.demand.record(false);
                None
            }
        }
    }

    /// Residency check without side effects.
    pub fn probe(&self, pc: Addr) -> Option<BtbEntry> {
        self.find(pc).map(|i| self.storage[i].entry)
    }

    /// Inserts (or updates) an entry, evicting the set's LRU way if needed.
    ///
    /// `from_replay` marks entries installed by Ignite's replay engine; only
    /// ordinary insertions are appended to the insertion log that Ignite's
    /// recorder drains. Returns the evicted entry, if any.
    pub fn insert(&mut self, entry: BtbEntry, from_replay: bool) -> Option<BtbEntry> {
        self.clock += 1;
        if let Some(i) = self.find(entry.branch_pc) {
            // Target (or kind) update of an existing entry: no allocation,
            // nothing recorded — the paper records creation events only.
            let way = &mut self.storage[i];
            way.entry = entry;
            way.lru_stamp = self.clock;
            return None;
        }
        if from_replay {
            self.stats.replay_insertions += 1;
            self.restored_untouched += 1;
        } else {
            self.stats.insertions += 1;
            self.insert_log.push(entry);
        }
        // First invalid way, else the way with the oldest LRU stamp (first
        // of equals — the same victim `min_by_key` over `(valid, stamp)`
        // tuples would pick, without tuple-compare overhead per way).
        let (base, set) = self.set_slice(entry.branch_pc);
        let mut victim_in_set = 0;
        let mut oldest = u64::MAX;
        for (i, w) in set.iter().enumerate() {
            if !w.valid {
                victim_in_set = i;
                break;
            }
            if w.lru_stamp < oldest {
                oldest = w.lru_stamp;
                victim_in_set = i;
            }
        }
        let victim = base + victim_in_set;
        let evicted = if self.storage[victim].valid {
            self.stats.evictions += 1;
            let old = self.storage[victim];
            if old.restored && !old.touched {
                self.restored_untouched = self.restored_untouched.saturating_sub(1);
                self.stats.restored_evicted_untouched += 1;
            }
            Some(old.entry)
        } else {
            None
        };
        self.storage[victim] = Way {
            valid: true,
            entry,
            lru_stamp: self.clock,
            restored: from_replay,
            touched: false,
            vm: self.current_vm,
        };
        evicted
    }

    /// Takes the log of committed-branch insertions since the last drain.
    ///
    /// Ignite's record logic calls this each cycle to observe BTB allocation
    /// events (§4.1).
    pub fn drain_insertions(&mut self) -> Vec<BtbEntry> {
        std::mem::take(&mut self.insert_log)
    }

    /// Invalidates every entry (lukewarm flush).
    pub fn flush(&mut self) {
        // Rewrites every way in place (builds the table on first use).
        self.storage.clear();
        self.storage.resize(self.sets * self.ways, Way::default());
        self.restored_untouched = 0;
        self.insert_log.clear();
    }

    /// Iterates over all valid entries (inspection/tests).
    pub fn iter(&self) -> impl Iterator<Item = &BtbEntry> {
        self.storage.iter().filter(|w| w.valid).map(|w| &w.entry)
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
        let log = b.drain_insertions();
        assert_eq!(log, vec![entry(0x10, 0x99)]);
        assert!(b.drain_insertions().is_empty(), "drain consumes");
    }

    #[test]
    fn target_update_not_logged_again() {
        let mut b = btb();
        b.insert(entry(0x10, 0x99), false);
        b.drain_insertions();
        b.insert(entry(0x10, 0xaa), false);
        assert!(b.drain_insertions().is_empty());
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

    #[test]
    fn vm_tagging_isolates_entries() {
        let mut b = btb();
        b.enable_vm_tagging();
        b.set_vm(1);
        b.insert(entry(0x10, 0x99), true); // replayed by VM 1
        assert!(b.lookup(Addr::new(0x10)).is_some(), "owner VM sees its entry");
        b.set_vm(2);
        assert!(
            b.lookup(Addr::new(0x10)).is_none(),
            "another VM must not consume VM 1's replayed entries (§4.4)"
        );
        b.set_vm(1);
        assert!(b.lookup(Addr::new(0x10)).is_some());
    }

    #[test]
    fn vm_tagging_disabled_is_transparent() {
        let mut b = btb();
        b.set_vm(1);
        b.insert(entry(0x10, 0x99), false);
        b.set_vm(2);
        assert!(b.lookup(Addr::new(0x10)).is_some(), "no tagging: shared BTB");
    }

    #[test]
    fn vm_tagged_duplicate_pcs_coexist() {
        let mut b = btb();
        b.enable_vm_tagging();
        b.set_vm(1);
        b.insert(entry(0x10, 0x99), false);
        b.set_vm(2);
        b.insert(entry(0x10, 0xaa), false);
        assert_eq!(b.lookup(Addr::new(0x10)).unwrap().target, Addr::new(0xaa));
        b.set_vm(1);
        assert_eq!(b.lookup(Addr::new(0x10)).unwrap().target, Addr::new(0x99));
    }
}

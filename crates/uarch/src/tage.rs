//! TAGE conditional branch predictor component.
//!
//! A standard TAGE (TAgged GEometric history length) predictor: a set of
//! tagged tables indexed by hashes of the branch PC and geometrically
//! increasing slices of global history, with usefulness counters steering
//! allocation. Together with the bimodal base ([`crate::bimodal`]) this
//! forms the paper's L-TAGE-style CBP (Table 2: 64 KiB TAGE + 5 KiB BIM).
//! The loop predictor of full L-TAGE is omitted (see DESIGN.md §5).
//!
//! Following the paper's §5.3 (citing the IBM z15 and AMD Zen 4), the
//! global history is *taken-only*: only taken branches shift bits in.
//!
//! # State layout
//!
//! Every tagged table lives in one flat array of 4-byte entries: entry
//! `idx` of table `t` sits at `t << log2(entries_per_table) | idx`. An
//! entry is a `u16` tag plus one byte each for the signed 3-bit counter
//! and the 2-bit usefulness counter. Bit 15 of the tag is the valid
//! flag, so a lookup makes one compare (the stored tag against the
//! computed tag with that bit set) and a tag is at most 15 bits wide.
//! The Table 2 predictor (8 tables of 4,096 entries) holds 128 KiB.

use crate::addr::Addr;
use crate::rng::SplitMix64;

/// TAGE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TageConfig {
    /// Number of tagged tables.
    pub tables: usize,
    /// Entries per tagged table (power of two).
    pub entries_per_table: usize,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// Shortest history length.
    pub min_history: u32,
    /// Longest history length.
    pub max_history: u32,
    /// Updates between usefulness-counter decays.
    pub u_reset_period: u64,
}

impl TageConfig {
    /// Geometric history length for table `i` (0 = shortest).
    pub fn history_length(&self, i: usize) -> u32 {
        if self.tables == 1 {
            return self.min_history;
        }
        let ratio = (self.max_history as f64 / self.min_history as f64)
            .powf(1.0 / (self.tables as f64 - 1.0));
        (self.min_history as f64 * ratio.powi(i as i32)).round() as u32
    }

    /// Approximate storage cost in bytes (tag + 3-bit counter + 2-bit u).
    pub fn storage_bytes(&self) -> usize {
        let bits_per_entry = self.tag_bits as usize + 3 + 2;
        self.tables * self.entries_per_table * bits_per_entry / 8
    }
}

/// One tagged entry. [`TageEntry::default`] is invalid.
#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    /// The tag in the low `tag_bits` bits, joined with [`VALID`] once
    /// the entry is allocated.
    tag: u16,
    /// Signed 3-bit counter in `[-4, 3]`; `>= 0` predicts taken.
    ctr: i8,
    /// 2-bit usefulness counter.
    useful: u8,
}

const _: () = assert!(std::mem::size_of::<TageEntry>() == 4, "a TAGE entry is 4 bytes");

/// A [`TageEntry`]'s valid flag, in the tag's top bit.
const VALID: u16 = 1 << 15;

/// One kind of cyclically folded history register (Seznec's CSR
/// construction), kept for every table as a lane of one array. Bit `i` of
/// a table's last `orig_len` history bits (0 = newest) lands at position
/// `i % width`, XOR-folded into `width` bits. All tables share the width,
/// so one push updates every lane with the same shifts; lanes past the
/// configured tables fold bits nothing reads.
#[derive(Debug, Clone, Copy)]
struct FoldLanes {
    comp: [u32; Tage::MAX_TABLES],
    /// Per table, `1 << (orig_len % width)`: where the bit leaving the
    /// window sits once the register has shifted, fixed here so an update
    /// divides nothing.
    out_bit: [u32; Tage::MAX_TABLES],
    width: u32,
}

impl FoldLanes {
    /// Registers of `width` bits (at most 16) over the windows of
    /// `cfg`'s tables.
    fn new(cfg: &TageConfig, width: u32) -> Self {
        let width = width.max(1);
        let mut out_bit = [0; Tage::MAX_TABLES];
        for (t, bit) in out_bit.iter_mut().enumerate().take(cfg.tables) {
            *bit = 1 << (cfg.history_length(t) % width);
        }
        FoldLanes { comp: [0; Tage::MAX_TABLES], out_bit, width }
    }

    /// Shifts `new_bit` into every lane and removes each lane's `old`
    /// bit (the bit leaving that table's window).
    #[inline]
    fn update(&mut self, new_bit: u32, old: &[u32; Tage::MAX_TABLES]) {
        let (width, mask) = (self.width, (1 << self.width) - 1);
        // Branch-free and uniform across lanes, so it vectorizes.
        for ((comp, &out_bit), &old) in self.comp.iter_mut().zip(&self.out_bit).zip(old) {
            let c = (*comp << 1 | new_bit) ^ (old.wrapping_neg() & out_bit);
            *comp = (c ^ c >> width) & mask;
        }
    }
}

/// Taken-only global history ring buffer. Its capacity is `len` rounded
/// up to a power of two, so positions wrap with a mask, not a division.
#[derive(Debug, Clone)]
struct History {
    bits: Vec<u8>,
    pos: usize,
}

impl History {
    fn new(len: usize) -> Self {
        History { bits: vec![0; len.max(1).next_power_of_two()], pos: 0 }
    }

    fn mask(&self) -> usize {
        self.bits.len() - 1
    }

    /// The i-th most recent bit (0 = newest); `i` must be below the
    /// `len` the ring was built for.
    fn bit(&self, i: usize) -> u64 {
        self.bits[self.pos.wrapping_sub(i + 1) & self.mask()] as u64
    }

    fn push(&mut self, bit: u64) {
        self.bits[self.pos] = bit as u8;
        self.pos = (self.pos + 1) & self.mask();
    }

    fn clear(&mut self) {
        self.bits.fill(0);
        self.pos = 0;
    }
}

/// Prediction metadata threaded from [`Tage::predict`] to [`Tage::update`].
///
/// The engine queues one per in-flight conditional branch, so it is kept
/// compact: [`Tage::new`] bounds tables to 65,536 entries and tags to 15
/// bits, so every index and tag fits a `u16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePrediction {
    /// Per-table indices computed at prediction time.
    indices: [u16; Tage::MAX_TABLES],
    /// Per-table tags computed at prediction time.
    tags: [u16; Tage::MAX_TABLES],
    /// Table index of the hit with the longest history, if any.
    provider: Option<u8>,
    /// Direction from the provider (meaningless if `provider` is `None`).
    provider_pred: bool,
    /// Alternate prediction: next-longest hit, if any.
    alt: Option<bool>,
    /// The provider entry was weak (newly allocated).
    weak_provider: bool,
}

const _: () = assert!(std::mem::size_of::<TagePrediction>() <= 88, "prediction record grew");

impl TagePrediction {
    /// The tagged prediction, if any table hit.
    ///
    /// `None` means the composed predictor must fall back to its base
    /// (bimodal) prediction.
    pub fn direction(&self) -> Option<bool> {
        self.provider.map(|_| self.provider_pred)
    }

    /// The alternate (next-longest-hit) prediction, if any.
    pub fn alt_direction(&self) -> Option<bool> {
        self.alt
    }

    /// Whether the provider entry looked newly allocated.
    pub fn weak_provider(&self) -> bool {
        self.weak_provider
    }
}

/// A TAGE predictor.
///
/// # Example
///
/// ```
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::tage::{Tage, TageConfig};
///
/// let mut tage = Tage::new(&TageConfig {
///     tables: 4, entries_per_table: 256, tag_bits: 9,
///     min_history: 4, max_history: 64, u_reset_period: 1 << 18,
/// });
/// let pc = Addr::new(0x1000);
/// let p = tage.predict(pc);
/// assert!(p.direction().is_none(), "cold TAGE has no tagged hit");
/// tage.update(pc, true, &p, false, false);
/// ```
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    /// Every table's entries (see the module docs for the layout).
    entries: Vec<TageEntry>,
    /// `log2(entries_per_table)`: the shift from a table to its first
    /// entry.
    index_bits: u32,
    history: History,
    /// Per table, the history index (its length minus one) of the bit
    /// that leaves its window on the next push.
    fold_points: [usize; Tage::MAX_TABLES],
    /// Folded history feeding the index hash (`log2(entries)` bits).
    folded_index: FoldLanes,
    /// Folded history feeding the tag hash: `tag_bits` and `tag_bits - 1`
    /// bits wide.
    folded_tag: [FoldLanes; 2],
    update_count: u64,
    rng: SplitMix64,
    allocations: u64,
}

impl Tage {
    /// Upper bound on `tables` supported by the fixed-size metadata arrays.
    pub const MAX_TABLES: usize = 16;

    /// Seed of the allocation RNG of a cold predictor.
    const RNG_SEED: u64 = 0x7A6E_5EED;

    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate: zero tables, more than
    /// [`Tage::MAX_TABLES`] tables, a non-power-of-two table size or one
    /// above 65,536 entries, a tag width outside 1–15 bits, or
    /// `min_history > max_history`.
    pub fn new(cfg: &TageConfig) -> Self {
        assert!(cfg.tables > 0 && cfg.tables <= Self::MAX_TABLES, "1..=16 tables supported");
        assert!(cfg.entries_per_table.is_power_of_two(), "table size must be a power of two");
        assert!(cfg.entries_per_table <= 1 << 16, "at most 65,536 entries per table");
        assert!((1..=15).contains(&cfg.tag_bits), "tags must be 1..=15 bits wide");
        assert!(cfg.min_history <= cfg.max_history, "min history exceeds max");
        assert!(cfg.min_history > 0, "history lengths must be at least 1");
        let mut fold_points = [0; Self::MAX_TABLES];
        for (t, point) in fold_points.iter_mut().enumerate().take(cfg.tables) {
            *point = cfg.history_length(t) as usize - 1;
        }
        let index_bits = cfg.entries_per_table.trailing_zeros();
        let mut tage = Tage {
            cfg: *cfg,
            entries: Vec::new(),
            index_bits,
            history: History::new(fold_points.iter().max().map_or(1, |&p| p + 1)),
            fold_points,
            folded_index: FoldLanes::new(cfg, index_bits),
            folded_tag: [FoldLanes::new(cfg, cfg.tag_bits), FoldLanes::new(cfg, cfg.tag_bits - 1)],
            update_count: 0,
            rng: SplitMix64::new(Self::RNG_SEED),
            allocations: 0,
        };
        tage.reset();
        tage
    }

    /// The configuration.
    pub fn config(&self) -> &TageConfig {
        &self.cfg
    }

    /// Entries allocated so far.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    fn index(&self, table: usize, pc: Addr) -> usize {
        let pcv = pc.as_u64();
        let mask = self.cfg.entries_per_table as u64 - 1;
        let h = pcv
            ^ (pcv >> (u64::from(self.index_bits) + table as u64 + 1))
            ^ u64::from(self.folded_index.comp[table]);
        (h & mask) as usize
    }

    /// The position of entry `idx` of table `table` in the flat array.
    #[inline]
    fn slot(&self, table: usize, idx: u16) -> usize {
        table << self.index_bits | usize::from(idx)
    }

    fn tag(&self, table: usize, pc: Addr) -> u16 {
        let pcv = pc.as_u64();
        let mask = (1u64 << self.cfg.tag_bits) - 1;
        let folded = self.folded_tag[0].comp[table] ^ self.folded_tag[1].comp[table] << 1;
        ((pcv ^ u64::from(folded)) & mask) as u16
    }

    /// Computes the prediction for `pc`.
    pub fn predict(&self, pc: Addr) -> TagePrediction {
        let mut indices = [0u16; Self::MAX_TABLES];
        let mut tags = [0u16; Self::MAX_TABLES];
        let mut provider = None;
        let mut provider_pred = false;
        let mut weak_provider = false;
        let mut alt = None;
        for t in 0..self.cfg.tables {
            indices[t] = self.index(t, pc) as u16;
            tags[t] = self.tag(t, pc);
        }
        // Scan from longest history (highest table) down.
        for t in (0..self.cfg.tables).rev() {
            let e = &self.entries[self.slot(t, indices[t])];
            if e.tag == tags[t] | VALID {
                if provider.is_none() {
                    provider = Some(t as u8);
                    provider_pred = e.ctr >= 0;
                    weak_provider = e.useful == 0 && (e.ctr == 0 || e.ctr == -1);
                } else {
                    alt = Some(e.ctr >= 0);
                    break;
                }
            }
        }
        TagePrediction { indices, tags, provider, provider_pred, alt, weak_provider }
    }

    /// Trains the predictor with the resolved outcome.
    ///
    /// `mispredicted` is the *final* (composed) predictor outcome, which
    /// gates new-entry allocation as in standard TAGE. `alt_pred` is the
    /// direction the alternate predictor (next-longest hit, or the bimodal
    /// base) produced — it drives usefulness-counter training.
    pub fn update(
        &mut self,
        _pc: Addr,
        taken: bool,
        pred: &TagePrediction,
        mispredicted: bool,
        alt_pred: bool,
    ) {
        self.update_count += 1;
        // Periodic graceful decay of usefulness counters.
        if self.cfg.u_reset_period > 0 && self.update_count.is_multiple_of(self.cfg.u_reset_period)
        {
            for e in &mut self.entries {
                e.useful >>= 1;
            }
        }
        if let Some(p) = pred.provider.map(usize::from) {
            let correct = pred.provider_pred == taken;
            let slot = self.slot(p, pred.indices[p]);
            let e = &mut self.entries[slot];
            e.ctr = if taken { (e.ctr + 1).min(3) } else { (e.ctr - 1).max(-4) };
            // Usefulness trains only when provider and alternate disagree.
            if pred.provider_pred != alt_pred {
                if correct {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        // Allocate on misprediction in a table with longer history.
        if mispredicted {
            let start = pred.provider.map_or(0, |p| usize::from(p) + 1);
            if start < self.cfg.tables {
                // Choose randomly among allocatable (u == 0) candidates,
                // biased toward shorter histories as in Seznec's TAGE.
                let mut allocated = false;
                let mut t = start;
                // Random skip: with probability 1/2 start one table higher.
                if t + 1 < self.cfg.tables && self.rng.chance(0.5) {
                    t += 1;
                }
                while t < self.cfg.tables {
                    let slot = self.slot(t, pred.indices[t]);
                    if self.entries[slot].useful == 0 {
                        self.entries[slot] = TageEntry {
                            tag: pred.tags[t] | VALID,
                            ctr: if taken { 0 } else { -1 },
                            useful: 0,
                        };
                        self.allocations += 1;
                        allocated = true;
                        break;
                    }
                    t += 1;
                }
                if !allocated {
                    // Decay usefulness so future allocations can succeed.
                    for t in start..self.cfg.tables {
                        let slot = self.slot(t, pred.indices[t]);
                        let e = &mut self.entries[slot];
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }
    }

    /// Advances the taken-only global history after a *taken* branch.
    ///
    /// Call for every committed taken branch (any kind); not-taken branches
    /// leave the history untouched.
    pub fn push_history(&mut self, pc: Addr, target: Addr) {
        let bit = (pc.as_u64() >> 2 ^ target.as_u64() >> 3) & 1;
        // The bit falling out of each folded window is the one at its
        // fold point *before* the push.
        let mut old = [0; Self::MAX_TABLES];
        for (o, &point) in old.iter_mut().zip(&self.fold_points).take(self.cfg.tables) {
            *o = self.history.bit(point) as u32;
        }
        let bit32 = bit as u32;
        self.folded_index.update(bit32, &old);
        self.folded_tag[0].update(bit32, &old);
        self.folded_tag[1].update(bit32, &old);
        self.history.push(bit);
    }

    /// Clears all tables and history (lukewarm flush). The allocation RNG
    /// and the statistics carry on.
    pub fn flush(&mut self) {
        // Rewrites every entry in place (builds the array on first use).
        self.entries.clear();
        self.entries.resize(self.cfg.tables << self.index_bits, TageEntry::default());
        self.history.clear();
        self.folded_index.comp = [0; Self::MAX_TABLES];
        for lanes in &mut self.folded_tag {
            lanes.comp = [0; Self::MAX_TABLES];
        }
        self.update_count = 0;
    }

    /// Clears statistics, keeping predictor state.
    pub fn reset_stats(&mut self) {
        self.allocations = 0;
    }

    /// Returns the predictor to its [`Tage::new`] state without
    /// reallocating: a flush that also re-seeds the allocation RNG and
    /// clears the statistics.
    pub fn reset(&mut self) {
        self.flush();
        self.rng = SplitMix64::new(Self::RNG_SEED);
        self.reset_stats();
    }

    /// Fraction of valid entries across all tables (inspection).
    pub fn occupancy(&self) -> f64 {
        let valid = self.entries.iter().filter(|e| e.tag & VALID != 0).count();
        valid as f64 / self.entries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TageConfig {
        TageConfig {
            tables: 6,
            entries_per_table: 1024,
            tag_bits: 11,
            min_history: 4,
            max_history: 256,
            u_reset_period: 1 << 18,
        }
    }

    fn tage() -> Tage {
        Tage::new(&config())
    }

    #[test]
    fn history_lengths_are_geometric() {
        let cfg = config();
        assert_eq!(cfg.history_length(0), cfg.min_history);
        assert_eq!(cfg.history_length(cfg.tables - 1), cfg.max_history);
        for i in 1..cfg.tables {
            assert!(cfg.history_length(i) > cfg.history_length(i - 1));
        }
    }

    #[test]
    fn storage_estimate_reasonable() {
        // Paper-scale config: 8 tables x 2048 entries x (12+5) bits ~ 34 KiB.
        let cfg = TageConfig {
            tables: 8,
            entries_per_table: 2048,
            tag_bits: 12,
            min_history: 4,
            max_history: 512,
            u_reset_period: 1 << 18,
        };
        let kib = cfg.storage_bytes() / 1024;
        assert!((30..=40).contains(&kib), "storage = {kib} KiB");
    }

    #[test]
    fn cold_predictor_has_no_tagged_hit() {
        let t = tage();
        let p = t.predict(Addr::new(0x1234));
        assert!(p.direction().is_none());
    }

    #[test]
    fn allocation_on_mispredict_enables_tagged_hits() {
        let mut t = tage();
        let pc = Addr::new(0x4000);
        // Mispredict repeatedly; allocations should start providing.
        for _ in 0..20 {
            let p = t.predict(pc);
            t.update(pc, true, &p, p.direction() != Some(true), false);
            t.push_history(pc, Addr::new(0x5000));
        }
        assert!(t.allocations() > 0);
    }

    #[test]
    fn learns_history_correlated_branch() {
        // A branch whose direction equals the direction of the previous
        // branch is unlearnable by bimodal alone but learnable by TAGE.
        let mut t = tage();
        let pc = Addr::new(0x8000);
        let other = Addr::new(0x9000);
        let mut correct_late = 0;
        let mut total_late = 0;
        let mut pattern = SplitMix64::new(3);
        for i in 0..4000 {
            let dir = pattern.chance(0.5);
            // "other" branch feeds the history a bit equal to `dir`
            // (push_history hashes pc >> 2, so +4 flips the bit).
            if dir {
                t.push_history(other + 4, Addr::NULL);
            } else {
                t.push_history(other, Addr::NULL);
            }
            let p = t.predict(pc);
            let predicted = p.direction().unwrap_or(false);
            if i > 3000 {
                total_late += 1;
                if predicted == dir {
                    correct_late += 1;
                }
            }
            t.update(pc, dir, &p, predicted != dir, false);
            if dir {
                t.push_history(pc, Addr::new(0xc000));
            }
        }
        let acc = correct_late as f64 / total_late as f64;
        assert!(acc > 0.80, "late accuracy {acc}");
    }

    #[test]
    fn flush_forgets_everything() {
        let mut t = tage();
        let pc = Addr::new(0x4000);
        for _ in 0..50 {
            let p = t.predict(pc);
            t.update(pc, true, &p, p.direction() != Some(true), false);
            t.push_history(pc, Addr::new(0x5000));
        }
        t.flush();
        let p = t.predict(pc);
        assert!(p.direction().is_none());
        assert!(t.occupancy() < 1e-9);
    }

    #[test]
    fn clone_snapshot_restores_state() {
        let mut t = tage();
        let pc = Addr::new(0x4000);
        for _ in 0..50 {
            let p = t.predict(pc);
            t.update(pc, true, &p, p.direction() != Some(true), false);
            t.push_history(pc, Addr::new(0x5000));
        }
        let snapshot = t.clone();
        t.flush();
        let restored = snapshot.clone();
        let p = restored.predict(pc);
        assert!(p.direction().is_some(), "snapshot preserves tagged entries");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_tables() {
        let mut cfg = config();
        cfg.entries_per_table = 1000;
        Tage::new(&cfg);
    }

    #[test]
    fn folded_history_changes_index() {
        let mut t = tage();
        let pc = Addr::new(0x7777);
        let before = t.index(t.cfg.tables - 1, pc);
        for i in 0..64 {
            // pc >> 2 alternates its low bit, producing a 0101... history.
            t.push_history(Addr::new(i * 4), Addr::NULL);
        }
        let after = t.index(t.cfg.tables - 1, pc);
        assert_ne!(before, after, "long-history index must depend on history");
    }

    /// Oracle for the incremental folding: after every push, each folded
    /// register equals `XOR_{i<L} h_i << (i mod C)` recomputed from the
    /// last `L` pushed bits (`h_0` newest), for its window length `L` and
    /// width `C`. A `max_history` of 100 makes the ring longer than the
    /// longest window, where its rounding up to a power of two could skew.
    #[test]
    fn folded_registers_match_a_from_scratch_fold() {
        let default = crate::config::UarchConfig::ice_lake_like().cbp.tage;
        for cfg in [default, TageConfig { max_history: 100, ..default }] {
            let mut t = Tage::new(&cfg);
            let mut rng = SplitMix64::new(u64::from(cfg.max_history));
            // Pushed bits, oldest first.
            let mut pushed: Vec<u64> = Vec::new();
            let index_bits = cfg.entries_per_table.trailing_zeros();
            let widths = [index_bits, cfg.tag_bits, cfg.tag_bits - 1];
            for _ in 0..3 * cfg.max_history {
                let (pc, target) = (Addr::new(rng.next_u64()), Addr::new(rng.next_u64()));
                t.push_history(pc, target);
                pushed.push((pc.as_u64() >> 2 ^ target.as_u64() >> 3) & 1);
                for table in 0..cfg.tables {
                    let len = cfg.history_length(table) as usize;
                    let registers = [
                        t.folded_index.comp[table],
                        t.folded_tag[0].comp[table],
                        t.folded_tag[1].comp[table],
                    ]
                    .map(u64::from);
                    for (register, width) in registers.into_iter().zip(widths) {
                        let oracle = pushed
                            .iter()
                            .rev()
                            .take(len)
                            .enumerate()
                            .fold(0, |acc, (i, &h)| acc ^ (h << (i % width as usize)));
                        assert_eq!(register, oracle, "table {table}, width {width}, len {len}");
                    }
                }
            }
        }
    }
}

//! ITTAGE-style indirect branch target predictor.
//!
//! The BTB stores one target per branch, so polymorphic indirect branches
//! (interpreter dispatch, virtual calls) mispredict whenever the target
//! changes. ITTAGE (Seznec's indirect cousin of TAGE) predicts *targets*
//! from tagged tables indexed by geometrically longer global-history
//! slices.
//!
//! The paper's simulated core does not call out an indirect predictor, so
//! this component is **optional** (off in the calibrated default
//! configuration; enable via
//! [`crate::config::UarchConfig::indirect_predictor`]) — an ablation for
//! how much of the remaining "wrong target" resteers a real front-end
//! would recover.

use crate::addr::Addr;

/// ITTAGE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IttageConfig {
    /// Number of tagged tables.
    pub tables: usize,
    /// Entries per table (power of two).
    pub entries_per_table: usize,
    /// Tag bits.
    pub tag_bits: u32,
    /// Shortest history length (in taken branches).
    pub min_history: u32,
    /// Longest history length.
    pub max_history: u32,
}

impl Default for IttageConfig {
    fn default() -> Self {
        IttageConfig {
            tables: 4,
            entries_per_table: 512,
            tag_bits: 11,
            min_history: 2,
            max_history: 64,
        }
    }
}

impl IttageConfig {
    fn history_length(&self, i: usize) -> u32 {
        if self.tables == 1 {
            return self.min_history;
        }
        let ratio = (self.max_history as f64 / self.min_history as f64)
            .powf(1.0 / (self.tables as f64 - 1.0));
        (self.min_history as f64 * ratio.powi(i as i32)).round() as u32
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct IttageEntry {
    valid: bool,
    tag: u16,
    target: Addr,
    /// 2-bit confidence.
    confidence: u8,
}

/// An ITTAGE-style indirect target predictor.
///
/// The caller feeds the global (taken-only) history as a rolling hash via
/// [`Ittage::push_history`], mirroring the TAGE history discipline.
///
/// # Example
///
/// ```
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::ittage::{Ittage, IttageConfig};
///
/// let mut it = Ittage::new(&IttageConfig::default());
/// let pc = Addr::new(0x100);
/// for _ in 0..4 {
///     it.update(pc, Addr::new(0x900));
/// }
/// assert_eq!(it.predict(pc), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct Ittage {
    cfg: IttageConfig,
    tables: Vec<Vec<IttageEntry>>,
    /// Geometric history length per table, fixed at construction.
    hist_len: Vec<u32>,
    /// Ring of recent path-history tokens (one per taken branch).
    ring: Vec<u64>,
    pos: usize,
    predictions: u64,
    tagged_hits: u64,
}

impl Ittage {
    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    pub fn new(cfg: &IttageConfig) -> Self {
        assert!(cfg.tables > 0 && cfg.tables <= 8, "1..=8 tables");
        assert!(cfg.entries_per_table.is_power_of_two(), "table size must be a power of two");
        let mut ittage = Ittage {
            cfg: *cfg,
            tables: vec![Vec::new(); cfg.tables],
            hist_len: (0..cfg.tables).map(|i| cfg.history_length(i)).collect(),
            ring: Vec::new(),
            pos: 0,
            predictions: 0,
            tagged_hits: 0,
        };
        ittage.reset();
        ittage
    }

    /// Advances the path history with a taken branch.
    pub fn push_history(&mut self, pc: Addr, target: Addr) {
        let token = (pc.as_u64() >> 2) ^ (target.as_u64() >> 4).rotate_left(21);
        self.ring[self.pos] = token;
        self.pos = (self.pos + 1) % self.ring.len();
    }

    /// Hash of the most recent `window` history tokens.
    fn window_hash(&self, window: u32) -> u64 {
        let n = self.ring.len();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..(window as usize).min(n) {
            let token = self.ring[(self.pos + n - 1 - i) % n];
            h = (h ^ token).wrapping_mul(0x100_0000_01b3).rotate_left(7);
        }
        h
    }

    fn index(&self, table: usize, pc: Addr) -> usize {
        let mask = self.cfg.entries_per_table as u64 - 1;
        let h = self.window_hash(self.hist_len[table]);
        (((pc.as_u64() >> 2) ^ h ^ (h >> 13)) & mask) as usize
    }

    fn tag(&self, table: usize, pc: Addr) -> u16 {
        let mask = (1u64 << self.cfg.tag_bits) - 1;
        let h = self.window_hash(self.hist_len[table]);
        (((pc.as_u64() >> 5) ^ h.rotate_left(17)) & mask) as u16
    }

    /// Predicts the target of the indirect branch at `pc`, if any table has
    /// a confident entry.
    pub fn predict(&mut self, pc: Addr) -> Option<Addr> {
        self.predictions += 1;
        for t in (0..self.cfg.tables).rev() {
            let e = &self.tables[t][self.index(t, pc)];
            if e.valid && e.tag == self.tag(t, pc) && e.confidence >= 1 {
                self.tagged_hits += 1;
                return Some(e.target);
            }
        }
        None
    }

    /// Trains with the resolved target.
    pub fn update(&mut self, pc: Addr, target: Addr) {
        let mut corrected = false;
        for t in (0..self.cfg.tables).rev() {
            let idx = self.index(t, pc);
            let tag = self.tag(t, pc);
            let e = &mut self.tables[t][idx];
            if e.valid && e.tag == tag {
                if e.target == target {
                    e.confidence = (e.confidence + 1).min(3);
                } else if e.confidence > 0 {
                    e.confidence -= 1;
                } else {
                    e.target = target;
                }
                corrected = true;
                break;
            }
        }
        if !corrected {
            // Allocate in the shortest-history table with a weak slot.
            for t in 0..self.cfg.tables {
                let idx = self.index(t, pc);
                let tag = self.tag(t, pc);
                let e = &mut self.tables[t][idx];
                if !e.valid || e.confidence == 0 {
                    *e = IttageEntry { valid: true, tag, target, confidence: 1 };
                    return;
                }
                e.confidence -= 1;
            }
        }
    }

    /// Predictions attempted.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Predictions served by a tagged entry.
    pub fn tagged_hits(&self) -> u64 {
        self.tagged_hits
    }

    /// Clears tables and history (lukewarm flush), keeping the statistics.
    pub fn flush(&mut self) {
        // Rewrites every entry in place (builds the tables on first use).
        for t in &mut self.tables {
            t.clear();
            t.resize(self.cfg.entries_per_table, IttageEntry::default());
        }
        self.ring.clear();
        self.ring.resize(self.cfg.max_history.max(1) as usize, 0);
        self.pos = 0;
    }

    /// Returns the predictor to its [`Ittage::new`] state without
    /// reallocating.
    pub fn reset(&mut self) {
        self.flush();
        self.predictions = 0;
        self.tagged_hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomorphic_target_learned() {
        let mut it = Ittage::new(&IttageConfig::default());
        let pc = Addr::new(0x100);
        for _ in 0..4 {
            it.update(pc, Addr::new(0x900));
        }
        assert_eq!(it.predict(pc), Some(Addr::new(0x900)));
    }

    #[test]
    fn unknown_branch_predicts_none() {
        let mut it = Ittage::new(&IttageConfig::default());
        assert_eq!(it.predict(Addr::new(0x42)), None);
    }

    #[test]
    fn history_separates_polymorphic_targets() {
        // A dispatch site whose target depends on the preceding path.
        let mut it = Ittage::new(&IttageConfig::default());
        let pc = Addr::new(0x200);
        let (path_a, path_b) = (Addr::new(0x1000), Addr::new(0x2000));
        let (ta, tb) = (Addr::new(0x9000), Addr::new(0xa000));
        for _ in 0..64 {
            it.push_history(path_a, Addr::new(0x1100));
            it.update(pc, ta);
            it.push_history(path_b, Addr::new(0x2100));
            it.update(pc, tb);
        }
        // Now probe each context.
        it.push_history(path_a, Addr::new(0x1100));
        let pred_a = it.predict(pc);
        it.update(pc, ta);
        it.push_history(path_b, Addr::new(0x2100));
        let pred_b = it.predict(pc);
        it.update(pc, tb);
        assert_eq!(pred_a, Some(ta), "path-A context predicts target A");
        assert_eq!(pred_b, Some(tb), "path-B context predicts target B");
    }

    #[test]
    fn target_change_retrains() {
        let mut it = Ittage::new(&IttageConfig::default());
        let pc = Addr::new(0x300);
        for _ in 0..4 {
            it.update(pc, Addr::new(0x111));
        }
        for _ in 0..8 {
            it.update(pc, Addr::new(0x222));
        }
        assert_eq!(it.predict(pc), Some(Addr::new(0x222)));
    }

    #[test]
    fn flush_forgets() {
        let mut it = Ittage::new(&IttageConfig::default());
        let pc = Addr::new(0x400);
        for _ in 0..4 {
            it.update(pc, Addr::new(0x900));
        }
        it.flush();
        assert_eq!(it.predict(pc), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_table_size() {
        let cfg = IttageConfig { entries_per_table: 500, ..Default::default() };
        Ittage::new(&cfg);
    }
}

//! Bimodal (BIM) conditional branch predictor.
//!
//! A table of 2-bit saturating counters indexed by a hash of the branch PC.
//! The paper's CBP pairs a 5 KiB bimodal base with a 64 KiB TAGE component
//! (Table 2); Ignite restores *only* the bimodal, initializing each restored
//! conditional branch to *weakly taken* (§4, §6.4).

use crate::addr::Addr;
use crate::rng::SplitMix64;

/// State of a 2-bit saturating counter.
///
/// Values 2 and 3 predict taken, 0 and 1 predict not-taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Strongly not-taken (0).
    StrongNotTaken,
    /// Weakly not-taken (1).
    WeakNotTaken,
    /// Weakly taken (2).
    WeakTaken,
    /// Strongly taken (3).
    StrongTaken,
}

impl Counter {
    /// Numeric value in `[0, 3]`.
    pub const fn value(self) -> u8 {
        match self {
            Counter::StrongNotTaken => 0,
            Counter::WeakNotTaken => 1,
            Counter::WeakTaken => 2,
            Counter::StrongTaken => 3,
        }
    }

    /// Counter for a numeric value.
    ///
    /// # Panics
    ///
    /// Panics if `v > 3`.
    pub const fn from_value(v: u8) -> Counter {
        match v {
            0 => Counter::StrongNotTaken,
            1 => Counter::WeakNotTaken,
            2 => Counter::WeakTaken,
            3 => Counter::StrongTaken,
            _ => panic!("counter value out of range"),
        }
    }

    /// Predicted direction.
    pub const fn taken(self) -> bool {
        self.value() >= 2
    }

    /// Counter after observing an outcome.
    pub const fn update(self, taken: bool) -> Counter {
        let v = self.value();
        if taken {
            Counter::from_value(if v < 3 { v + 1 } else { 3 })
        } else {
            Counter::from_value(if v > 0 { v - 1 } else { 0 })
        }
    }
}

/// Initialization policy for bimodal entries (paper Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BimInitPolicy {
    /// Leave the entry untouched (the "BTB only" baseline).
    None,
    /// Set to weakly not-taken (shown to *hurt* in §6.4).
    WeaklyNotTaken,
    /// Set to weakly taken (Ignite's policy).
    WeaklyTaken,
}

/// Bimodal predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BimodalConfig {
    /// Storage budget in bytes; each counter takes 2 bits (Table 2: 5 KiB).
    pub size_bytes: usize,
}

impl BimodalConfig {
    /// Number of 2-bit counters in the table.
    pub const fn counters(&self) -> usize {
        self.size_bytes * 4
    }
}

/// A bimodal predictor.
///
/// # Example
///
/// ```
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::bimodal::{Bimodal, BimodalConfig};
///
/// let mut bim = Bimodal::new(&BimodalConfig { size_bytes: 1024 });
/// let pc = Addr::new(0x400);
/// bim.update(pc, true);
/// bim.update(pc, true);
/// assert!(bim.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    cfg: BimodalConfig,
    table: Vec<Counter>,
}

impl Bimodal {
    /// Creates a predictor with every counter weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if the configured size yields zero counters.
    pub fn new(cfg: &BimodalConfig) -> Self {
        assert!(cfg.counters() > 0, "bimodal table must have at least one counter");
        let mut bim = Bimodal { cfg: *cfg, table: Vec::new() };
        bim.reset();
        bim
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true for a constructed predictor).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        // Multiplicative hash spreads nearby PCs across the table.
        let h = pc.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        (h % self.table.len() as u64) as usize
    }

    /// Current counter for a PC.
    pub fn counter(&self, pc: Addr) -> Counter {
        self.table[self.index(pc)]
    }

    /// Predicted direction for a PC.
    pub fn predict(&self, pc: Addr) -> bool {
        self.counter(pc).taken()
    }

    /// Trains the counter with an observed outcome.
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        self.table[i] = self.table[i].update(taken);
    }

    /// Sets the counter for a PC directly (Ignite replay initialization).
    pub fn set(&mut self, pc: Addr, counter: Counter) {
        let i = self.index(pc);
        self.table[i] = counter;
    }

    /// Overwrites the whole table with random state — the lukewarm protocol
    /// "overwrites the bimodal predictor with a random state" (§5.3).
    pub fn randomize(&mut self, rng: &mut SplitMix64) {
        for c in &mut self.table {
            *c = Counter::from_value((rng.next_u64() & 3) as u8);
        }
    }

    /// Resets every counter to weakly not-taken, the [`Bimodal::new`]
    /// state, without reallocating.
    pub fn reset(&mut self) {
        // Rewrites every counter in place (builds the table on first use).
        self.table.clear();
        self.table.resize(self.cfg.counters(), Counter::WeakNotTaken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bim() -> Bimodal {
        Bimodal::new(&BimodalConfig { size_bytes: 256 })
    }

    #[test]
    fn counter_saturation() {
        assert_eq!(Counter::StrongTaken.update(true), Counter::StrongTaken);
        assert_eq!(Counter::StrongNotTaken.update(false), Counter::StrongNotTaken);
    }

    #[test]
    fn counter_transitions() {
        let c = Counter::WeakNotTaken;
        assert!(!c.taken());
        let c = c.update(true);
        assert_eq!(c, Counter::WeakTaken);
        assert!(c.taken());
        assert_eq!(c.update(false), Counter::WeakNotTaken);
    }

    #[test]
    fn value_roundtrip() {
        for v in 0..4 {
            assert_eq!(Counter::from_value(v).value(), v);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_value_rejects_large() {
        Counter::from_value(4);
    }

    #[test]
    fn config_counters() {
        assert_eq!(BimodalConfig { size_bytes: 5 * 1024 }.counters(), 20480);
    }

    #[test]
    fn training_flips_prediction() {
        let mut b = bim();
        let pc = Addr::new(0x123);
        assert!(!b.predict(pc)); // default weakly not-taken
        b.update(pc, true);
        assert!(b.predict(pc));
    }

    #[test]
    fn set_weakly_taken() {
        let mut b = bim();
        let pc = Addr::new(0x555);
        b.set(pc, Counter::WeakTaken);
        assert!(b.predict(pc));
        assert_eq!(b.counter(pc), Counter::WeakTaken);
    }

    #[test]
    fn randomize_produces_mixed_state() {
        let mut b = Bimodal::new(&BimodalConfig { size_bytes: 4096 });
        let mut rng = SplitMix64::new(1);
        b.randomize(&mut rng);
        let taken = (0..b.len()).filter(|&i| b.table[i].taken()).count();
        let frac = taken as f64 / b.len() as f64;
        assert!((0.4..0.6).contains(&frac), "taken fraction {frac}");
    }

    #[test]
    fn randomize_deterministic() {
        let mut a = bim();
        let mut b = bim();
        a.randomize(&mut SplitMix64::new(9));
        b.randomize(&mut SplitMix64::new(9));
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn clear_resets() {
        let mut b = bim();
        b.update(Addr::new(0x1), true);
        b.update(Addr::new(0x1), true);
        b.reset();
        assert!(!b.predict(Addr::new(0x1)));
    }
}

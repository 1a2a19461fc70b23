//! Composed conditional branch predictor (CBP): bimodal base + TAGE.
//!
//! The final direction comes from TAGE when a tagged table hits (with the
//! standard weak-provider fallback to the alternate prediction) and from the
//! bimodal base otherwise. The CBP also classifies each misprediction as
//! *initial* (first dynamic execution of that branch within the current
//! invocation) or *subsequent*, the split behind the paper's Figs. 6 and 9b,
//! and attributes mispredictions induced by Ignite's weakly-taken BIM
//! initialization (Fig. 9c "overpredicted").

use crate::addr::Addr;
use crate::bimodal::{Bimodal, BimodalConfig, Counter};
use crate::fxmap::FxHashMap;
use crate::loop_pred::{LoopPredictor, LoopPredictorConfig};
use crate::tage::{Tage, TageConfig, TagePrediction};

/// CBP configuration: base + tagged component (+ optional loop predictor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbpConfig {
    /// Bimodal base predictor.
    pub bimodal: BimodalConfig,
    /// TAGE component.
    pub tage: TageConfig,
    /// Optional loop predictor, completing Seznec's L-TAGE. Off by default
    /// in the reproduction's calibrated configuration.
    pub loop_predictor: Option<LoopPredictorConfig>,
}

/// Prediction metadata threaded from [`Cbp::predict`] to [`Cbp::resolve`].
#[derive(Debug, Clone, Copy)]
pub struct CbpPrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// Whether TAGE (vs. the bimodal base) provided the direction.
    pub from_tage: bool,
    /// The bimodal base prediction (threaded to TAGE training).
    base: bool,
    tage: TagePrediction,
}

const _: () = assert!(std::mem::size_of::<CbpPrediction>() <= 96, "prediction record grew");

/// Per-branch flag: the branch resolved at least once this invocation.
const SEEN: u8 = 1;
/// Per-branch flag: Ignite's replay initialized the branch's BIM entry and
/// the branch has not resolved since.
const IGNITE_INITIALIZED: u8 = 2;

/// Misprediction and provenance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CbpStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Mispredictions.
    pub mispredictions: u64,
    /// Mispredictions on a branch's first execution in the invocation.
    pub initial_mispredictions: u64,
    /// Mispredictions on later executions.
    pub subsequent_mispredictions: u64,
    /// Initial mispredictions where Ignite's weakly-taken initialization of
    /// the BIM entry supplied the wrong direction.
    pub ignite_induced_mispredictions: u64,
    /// Initial executions whose (correct) prediction came from an
    /// Ignite-initialized BIM entry — covered initial predictions.
    pub ignite_covered_initials: u64,
    /// Predictions provided by TAGE.
    pub tage_provided: u64,
    /// Mispredictions where TAGE provided the direction.
    pub tage_mispredictions: u64,
    /// Mispredictions where the bimodal base provided the direction.
    pub bim_mispredictions: u64,
}

/// The composed conditional predictor.
///
/// # Example
///
/// ```
/// use ignite_uarch::addr::Addr;
/// use ignite_uarch::cbp::Cbp;
/// use ignite_uarch::config::UarchConfig;
///
/// let mut cbp = Cbp::new(&UarchConfig::ice_lake_like().cbp);
/// let pc = Addr::new(0x100);
/// let p = cbp.predict(pc);
/// cbp.resolve(pc, true, Addr::new(0x200), &p);
/// assert_eq!(cbp.stats().predictions, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cbp {
    bim: Bimodal,
    tage: Tage,
    loop_pred: Option<LoopPredictor>,
    /// [`SEEN`] and [`IGNITE_INITIALIZED`] flags by branch PC for the
    /// current invocation: one probe classifies a resolved branch.
    branch_flags: FxHashMap<u64, u8>,
    stats: CbpStats,
}

impl Cbp {
    /// Creates a cold predictor.
    pub fn new(cfg: &CbpConfig) -> Self {
        Cbp {
            bim: Bimodal::new(&cfg.bimodal),
            tage: Tage::new(&cfg.tage),
            loop_pred: cfg.loop_predictor.as_ref().map(LoopPredictor::new),
            branch_flags: FxHashMap::default(),
            stats: CbpStats::default(),
        }
    }

    /// Statistics accumulated since the last reset.
    pub fn stats(&self) -> &CbpStats {
        &self.stats
    }

    /// Clears statistics only.
    pub fn reset_stats(&mut self) {
        self.stats = CbpStats::default();
        self.tage.reset_stats();
    }

    /// Returns the predictor to its [`Cbp::new`] state without
    /// reallocating its tables: every component reset, no branch seen,
    /// zeroed statistics.
    pub fn reset(&mut self) {
        self.bim.reset();
        self.tage.reset();
        if let Some(lp) = &mut self.loop_pred {
            lp.reset();
        }
        self.branch_flags.clear();
        self.stats = CbpStats::default();
    }

    /// The bimodal base (for state manipulation by the lukewarm protocol
    /// and Ignite's replay).
    pub fn bimodal_mut(&mut self) -> &mut Bimodal {
        &mut self.bim
    }

    /// The bimodal base, immutably.
    pub fn bimodal(&self) -> &Bimodal {
        &self.bim
    }

    /// The TAGE component, immutably.
    pub fn tage(&self) -> &Tage {
        &self.tage
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&mut self, pc: Addr) -> CbpPrediction {
        let tage_pred = self.tage.predict(pc);
        let bim_dir = self.bim.predict(pc);
        // A confident loop-predictor entry overrides everything (L-TAGE).
        if let Some(lp) = &mut self.loop_pred {
            if let Some(p) = lp.predict(pc) {
                if p.confident {
                    return CbpPrediction {
                        taken: p.taken,
                        from_tage: false,
                        base: bim_dir,
                        tage: tage_pred,
                    };
                }
            }
        }
        let (taken, from_tage) = match tage_pred.direction() {
            Some(dir) => {
                if tage_pred.weak_provider() {
                    // Newly allocated provider: prefer the alternate
                    // prediction (TAGE's use_alt heuristic), else the base.
                    (tage_pred.alt_direction().unwrap_or(bim_dir), false)
                } else {
                    (dir, true)
                }
            }
            None => (bim_dir, false),
        };
        CbpPrediction { taken, from_tage, base: bim_dir, tage: tage_pred }
    }

    /// Resolves a conditional branch: trains both components, advances the
    /// taken-only history, and classifies any misprediction.
    pub fn resolve(&mut self, pc: Addr, taken: bool, target: Addr, pred: &CbpPrediction) {
        self.stats.predictions += 1;
        if pred.from_tage {
            self.stats.tage_provided += 1;
        }
        let mispredicted = pred.taken != taken;
        let (first_execution, ignite_init) = self.note_resolved(pc);
        if mispredicted {
            self.stats.mispredictions += 1;
            if pred.from_tage {
                self.stats.tage_mispredictions += 1;
            } else {
                self.stats.bim_mispredictions += 1;
            }
            if first_execution {
                self.stats.initial_mispredictions += 1;
                if ignite_init && !pred.from_tage {
                    self.stats.ignite_induced_mispredictions += 1;
                }
            } else {
                self.stats.subsequent_mispredictions += 1;
            }
        } else if first_execution && ignite_init && !pred.from_tage {
            self.stats.ignite_covered_initials += 1;
        }
        self.bim.update(pc, taken);
        let alt_pred = pred.tage.alt_direction().unwrap_or(pred.base);
        self.tage.update(pc, taken, &pred.tage, mispredicted, alt_pred);
        if let Some(lp) = &mut self.loop_pred {
            lp.update(pc, taken);
        }
        if taken {
            self.tage.push_history(pc, target);
        }
    }

    /// Trains the predictor for a conditional branch that was *not*
    /// predicted (it was unidentified — absent from the BTB at fetch time),
    /// without counting prediction statistics.
    ///
    /// The branch still registers as executed for initial/subsequent
    /// classification, and both components train at commit as in hardware.
    pub fn resolve_uncounted(&mut self, pc: Addr, taken: bool, target: Addr) {
        self.note_resolved(pc);
        let tage_pred = self.tage.predict(pc);
        let bim_dir = self.bim.predict(pc);
        let alt_pred = tage_pred.alt_direction().unwrap_or(bim_dir);
        let final_pred = tage_pred.direction().unwrap_or(bim_dir);
        self.bim.update(pc, taken);
        self.tage.update(pc, taken, &tage_pred, final_pred != taken, alt_pred);
        if taken {
            self.tage.push_history(pc, target);
        }
    }

    /// Marks the branch at `pc` resolved and clears its Ignite mark.
    /// Returns whether this was its first resolution this invocation and
    /// whether Ignite had initialized its BIM entry before it.
    #[inline]
    fn note_resolved(&mut self, pc: Addr) -> (bool, bool) {
        let flags = self.branch_flags.entry(pc.as_u64()).or_insert(0);
        let before = std::mem::replace(flags, SEEN);
        (before & SEEN == 0, before & IGNITE_INITIALIZED != 0)
    }

    /// Advances the taken-only history for a non-conditional taken branch
    /// (unconditional jump, call, return, indirect).
    pub fn note_taken_branch(&mut self, pc: Addr, target: Addr) {
        self.tage.push_history(pc, target);
    }

    /// Flushes the history-based components (TAGE and the loop predictor)
    /// — the lukewarm protocol's CBP flush.
    pub fn flush_tagged(&mut self) {
        self.tage.flush();
        if let Some(lp) = &mut self.loop_pred {
            lp.flush();
        }
    }

    /// The loop predictor, if configured.
    pub fn loop_predictor(&self) -> Option<&LoopPredictor> {
        self.loop_pred.as_ref()
    }

    /// Marks the start of a new invocation: resets first-execution tracking.
    ///
    /// Call *before* any Ignite replay so replay-marked entries are
    /// attributed to this invocation.
    pub fn begin_invocation(&mut self) {
        self.branch_flags.clear();
    }

    /// Ignite replay hook: initializes the BIM entry for `pc` and remembers
    /// the provenance for accuracy accounting.
    pub fn ignite_initialize(&mut self, pc: Addr, counter: Counter) {
        self.bim.set(pc, counter);
        *self.branch_flags.entry(pc.as_u64()).or_insert(0) |= IGNITE_INITIALIZED;
    }

    /// Number of distinct conditional branches executed this invocation.
    pub fn distinct_branches_seen(&self) -> usize {
        self.branch_flags.values().filter(|&&flags| flags & SEEN != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UarchConfig;
    use crate::rng::SplitMix64;

    fn cbp() -> Cbp {
        Cbp::new(&CbpConfig {
            bimodal: BimodalConfig { size_bytes: 1024 },
            tage: TageConfig {
                tables: 4,
                entries_per_table: 256,
                tag_bits: 9,
                min_history: 4,
                max_history: 64,
                u_reset_period: 1 << 16,
            },
            loop_predictor: None,
        })
    }

    #[test]
    fn loop_predictor_overrides_on_constant_trip_loops() {
        let mut cfg = UarchConfig::tiny_for_tests().cbp;
        cfg.loop_predictor = Some(crate::loop_pred::LoopPredictorConfig::default());
        let mut with_lp = Cbp::new(&cfg);
        cfg.loop_predictor = None;
        let mut without = Cbp::new(&cfg);
        let pc = Addr::new(0x1234);
        let run = |c: &mut Cbp| -> u64 {
            c.begin_invocation();
            for _ in 0..40 {
                for _ in 0..6 {
                    let p = c.predict(pc);
                    c.resolve(pc, true, Addr::new(0x2000), &p);
                }
                let p = c.predict(pc);
                c.resolve(pc, false, Addr::new(0x2000), &p);
            }
            c.stats().mispredictions
        };
        let lp_misses = run(&mut with_lp);
        let plain_misses = run(&mut without);
        assert!(
            lp_misses * 2 < plain_misses,
            "loop predictor must nail constant trips: {lp_misses} vs {plain_misses}"
        );
    }

    #[test]
    fn flush_tagged_clears_loop_predictor() {
        let mut cfg = UarchConfig::tiny_for_tests().cbp;
        cfg.loop_predictor = Some(crate::loop_pred::LoopPredictorConfig::default());
        let mut c = Cbp::new(&cfg);
        let pc = Addr::new(0x88);
        for _ in 0..20 {
            for _ in 0..3 {
                let p = c.predict(pc);
                c.resolve(pc, true, Addr::new(0x100), &p);
            }
            let p = c.predict(pc);
            c.resolve(pc, false, Addr::new(0x100), &p);
        }
        c.flush_tagged();
        assert_eq!(c.loop_predictor().unwrap().hits(), c.loop_predictor().unwrap().hits());
        // After the flush the loop predictor has no tracked entries: the
        // next prediction must come from bimodal/TAGE, not a stale loop.
        let p = c.predict(pc);
        let _ = p;
        assert!(c.tage().occupancy() < 1e-9);
    }

    #[test]
    fn biased_branch_learned_quickly() {
        let mut c = cbp();
        let pc = Addr::new(0x100);
        let mut wrong = 0;
        for _ in 0..100 {
            let p = c.predict(pc);
            if !p.taken {
                wrong += 1;
            }
            c.resolve(pc, true, Addr::new(0x200), &p);
        }
        assert!(wrong <= 3, "always-taken branch should train fast, wrong = {wrong}");
    }

    #[test]
    fn initial_vs_subsequent_classification() {
        let mut c = cbp();
        c.begin_invocation();
        let pc = Addr::new(0x300);
        // First execution: bimodal default is weakly not-taken, branch is
        // taken -> initial misprediction.
        let p = c.predict(pc);
        assert!(!p.taken);
        c.resolve(pc, true, Addr::new(0x400), &p);
        assert_eq!(c.stats().initial_mispredictions, 1);
        assert_eq!(c.stats().subsequent_mispredictions, 0);
        // Now weakly taken; force a not-taken outcome -> subsequent miss.
        let p = c.predict(pc);
        assert!(p.taken);
        c.resolve(pc, false, Addr::new(0x400), &p);
        assert_eq!(c.stats().subsequent_mispredictions, 1);
    }

    #[test]
    fn begin_invocation_resets_first_execution() {
        let mut c = cbp();
        c.begin_invocation();
        let pc = Addr::new(0x300);
        let p = c.predict(pc);
        c.resolve(pc, true, Addr::new(0x400), &p);
        c.begin_invocation();
        let p = c.predict(pc);
        c.resolve(pc, false, Addr::new(0x400), &p);
        // Second invocation's first execution is initial again.
        assert_eq!(c.stats().initial_mispredictions, 2);
    }

    #[test]
    fn ignite_initialization_covers_taken_branch() {
        let mut c = cbp();
        c.begin_invocation();
        let pc = Addr::new(0x500);
        c.ignite_initialize(pc, Counter::WeakTaken);
        let p = c.predict(pc);
        assert!(p.taken, "ignite set weakly taken");
        c.resolve(pc, true, Addr::new(0x600), &p);
        assert_eq!(c.stats().mispredictions, 0);
        assert_eq!(c.stats().ignite_covered_initials, 1);
    }

    #[test]
    fn ignite_induced_misprediction_attributed() {
        let mut c = cbp();
        c.begin_invocation();
        let pc = Addr::new(0x500);
        c.ignite_initialize(pc, Counter::WeakTaken);
        let p = c.predict(pc);
        c.resolve(pc, false, Addr::new(0x600), &p);
        assert_eq!(c.stats().ignite_induced_mispredictions, 1);
    }

    #[test]
    fn ignite_attribution_only_on_first_execution() {
        let mut c = cbp();
        c.begin_invocation();
        let pc = Addr::new(0x500);
        c.ignite_initialize(pc, Counter::WeakTaken);
        let p = c.predict(pc);
        c.resolve(pc, true, Addr::new(0x600), &p);
        // Later misprediction is the predictor's own fault.
        let p = c.predict(pc);
        c.resolve(pc, false, Addr::new(0x600), &p);
        assert_eq!(c.stats().ignite_induced_mispredictions, 0);
    }

    #[test]
    fn randomized_bim_mispredicts_biased_code() {
        // The lukewarm protocol's randomized BIM should mispredict roughly
        // half of first executions of taken-biased branches.
        let mut c = cbp();
        c.bimodal_mut().randomize(&mut SplitMix64::new(77));
        c.begin_invocation();
        let mut initial_misses = 0;
        for i in 0..1000u64 {
            let pc = Addr::new(0x10_000 + i * 12);
            let p = c.predict(pc);
            if !p.taken {
                initial_misses += 1;
            }
            c.resolve(pc, true, Addr::new(0x20_000 + i * 4), &p);
        }
        assert!(
            (350..650).contains(&initial_misses),
            "randomized BIM should miss ~half: {initial_misses}"
        );
    }

    #[test]
    fn distinct_branch_tracking() {
        let mut c = cbp();
        c.begin_invocation();
        for i in 0..5u64 {
            let pc = Addr::new(0x100 + i * 4);
            let p = c.predict(pc);
            c.resolve(pc, true, Addr::new(0x200), &p);
        }
        let pc = Addr::new(0x100);
        let p = c.predict(pc);
        c.resolve(pc, true, Addr::new(0x200), &p);
        assert_eq!(c.distinct_branches_seen(), 5);
    }
}

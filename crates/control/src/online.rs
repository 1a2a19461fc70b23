//! The windowed online fold over the policy sample stream.
//!
//! [`OnlineScope`] is the controller's view of the attribution stream:
//! per-function component accumulators and a latency sketch for the
//! current epoch, and a cumulative per-function idle-gap sketch for
//! keep-alive retuning. Every [`OnlineScope::observe`] is O(1) (sketch
//! inserts are O(log buckets)); nothing retains raw samples.

use std::collections::BTreeMap;

use ignite_cluster::PolicySample;
use ignite_obs::QuantileSketch;

/// Per-function accumulators for one epoch window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnWindow {
    /// Completed invocations this epoch.
    pub invocations: u64,
    /// Invocations served from the metadata store.
    pub hits: u64,
    /// Invocations that paid a store miss (replay attempted, metadata
    /// absent).
    pub misses: u64,
    /// Attributed record/replay cost: `dram + store_miss` cycles.
    pub replay_cost_cycles: u64,
    /// Residual front-end stall cycles summed over store hits — what a
    /// warm invocation still pays with replay on.
    pub hit_frontend_cycles: u64,
    /// Front-end stall cycles summed over store misses — what a cold
    /// invocation pays when replay has nothing to work with.
    pub miss_frontend_cycles: u64,
}

impl FnWindow {
    /// Replay's estimated epoch savings for this function: hits ×
    /// (average miss front-end − average hit front-end). `None` when
    /// the epoch lacks both hit and miss evidence (the replay rule
    /// needs both sides of the comparison to be observed).
    pub fn replay_savings(&self) -> Option<u64> {
        if self.hits == 0 {
            return Some(0);
        }
        if self.misses == 0 {
            return None;
        }
        let avg_miss = self.miss_frontend_cycles / self.misses;
        let avg_hit = self.hit_frontend_cycles / self.hits;
        Some(self.hits * avg_miss.saturating_sub(avg_hit))
    }
}

/// The controller's windowed fold over [`PolicySample`]s.
#[derive(Debug, Clone, Default)]
pub struct OnlineScope {
    epoch_latency: QuantileSketch,
    functions: BTreeMap<u32, FnWindow>,
    idle_gaps: BTreeMap<u32, QuantileSketch>,
    last_completion: BTreeMap<u32, u64>,
    epoch_samples: u64,
}

impl OnlineScope {
    /// Creates an empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed invocation into the current epoch window. An
    /// invocation with replay suppressed counts on neither side of the
    /// replay savings estimate.
    pub fn observe(&mut self, s: &PolicySample) {
        let c = &s.cycles;
        self.epoch_latency.observe(c.latency_cycles);
        self.epoch_samples += 1;
        let w = self.functions.entry(s.function).or_default();
        w.invocations += 1;
        w.replay_cost_cycles += c.dram_cycles + c.store_miss_cycles;
        if !s.replay_suppressed {
            if s.store_hit {
                w.hits += 1;
                w.hit_frontend_cycles += c.cold_frontend_cycles;
            } else {
                w.misses += 1;
                w.miss_frontend_cycles += c.store_miss_cycles;
            }
        }
        match self.last_completion.insert(s.function, s.completion) {
            Some(prev) if s.completion > prev => {
                self.idle_gaps.entry(s.function).or_default().observe(s.completion - prev);
            }
            _ => {}
        }
    }

    /// Completed invocations folded in the current epoch.
    pub fn epoch_samples(&self) -> u64 {
        self.epoch_samples
    }

    /// The current epoch's latency quantile (percent, 0..=100).
    pub fn epoch_quantile(&self, p: u32) -> u64 {
        self.epoch_latency.quantile(p)
    }

    /// Cumulative idle-gap sketches per function (completion-to-
    /// completion gaps, the same signal the hybrid keep-alive policy
    /// histograms).
    pub fn idle_gaps(&self) -> &BTreeMap<u32, QuantileSketch> {
        &self.idle_gaps
    }

    /// Closes the epoch: returns the per-function windows and resets
    /// them and the epoch latency sketch for the next epoch. Idle-gap
    /// sketches persist across epochs (windows need history to
    /// stabilize).
    pub fn drain_epoch(&mut self) -> BTreeMap<u32, FnWindow> {
        self.epoch_latency = QuantileSketch::new();
        self.epoch_samples = 0;
        std::mem::take(&mut self.functions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_obs::Attribution;

    fn sample(function: u32, completion: u64, latency: u64) -> PolicySample {
        PolicySample {
            function,
            completion,
            cycles: Attribution {
                execution_cycles: latency,
                latency_cycles: latency,
                ..Attribution::default()
            },
            store_hit: false,
            replay_suppressed: false,
        }
    }

    #[test]
    fn drain_returns_and_resets_the_epoch_window() {
        let mut scope = OnlineScope::new();
        for i in 0..10u64 {
            scope.observe(&sample(0, i * 100, 1_000 + i));
        }
        assert_eq!(scope.epoch_samples(), 10);
        assert!(scope.epoch_quantile(99) >= 1_009);
        let fns = scope.drain_epoch();
        assert_eq!(fns[&0].invocations, 10);
        assert_eq!(scope.epoch_samples(), 0);
        assert_eq!(scope.epoch_quantile(99), 0);
        assert!(scope.drain_epoch().is_empty());
    }

    #[test]
    fn hit_miss_and_suppressed_split_the_window() {
        let mut scope = OnlineScope::new();
        let mut hit = sample(3, 100, 500);
        hit.store_hit = true;
        hit.cycles.dram_cycles = 40;
        hit.cycles.cold_frontend_cycles = 60;
        scope.observe(&hit);
        let mut miss = sample(3, 200, 900);
        miss.cycles.store_miss_cycles = 300;
        scope.observe(&miss);
        let mut sup = sample(3, 300, 700);
        sup.replay_suppressed = true;
        sup.cycles.cold_frontend_cycles = 280;
        scope.observe(&sup);
        let w = scope.drain_epoch()[&3];
        assert_eq!((w.invocations, w.hits, w.misses), (3, 1, 1));
        assert_eq!(w.replay_cost_cycles, 340);
        assert_eq!(w.hit_frontend_cycles, 60);
        assert_eq!(w.miss_frontend_cycles, 300);
        // savings = hits * (300/1 - 60/1) = 240
        assert_eq!(w.replay_savings(), Some(240));
    }

    #[test]
    fn replay_savings_needs_both_sides() {
        let all_hits =
            FnWindow { invocations: 4, hits: 4, hit_frontend_cycles: 100, ..FnWindow::default() };
        assert_eq!(all_hits.replay_savings(), None);
        let all_misses = FnWindow {
            invocations: 4,
            misses: 4,
            miss_frontend_cycles: 900,
            ..FnWindow::default()
        };
        assert_eq!(all_misses.replay_savings(), Some(0));
    }

    #[test]
    fn idle_gaps_span_epochs_and_ignore_reordering() {
        let mut scope = OnlineScope::new();
        scope.observe(&sample(1, 1_000, 10));
        scope.observe(&sample(1, 3_000, 10));
        scope.drain_epoch();
        scope.observe(&sample(1, 9_000, 10));
        // Out-of-order completion: no negative gap recorded.
        scope.observe(&sample(1, 8_000, 10));
        let gaps = &scope.idle_gaps()[&1];
        assert_eq!(gaps.count(), 2);
        assert_eq!(gaps.max(), 6_000);
        assert_eq!(gaps.min(), 2_000);
    }
}

//! The policy controller: deterministic rules over the online fold.
//!
//! [`Controller`] implements [`PolicyHook`]. Per completed invocation
//! it folds the [`PolicySample`] into [`OnlineScope`] and the cluster-
//! wide [`SloTracker`]; at each epoch boundary it drains the window and
//! evaluates four rule families, emitting one [`Decision`] per
//! actuation (the simulator mirrors each onto the `Track::Controller`
//! trace track):
//!
//! 1. **Replay admission** (`ReplayOff` / `ReplayOn`): replay is
//!    disabled for a function when its attributed epoch cost
//!    (`dram + store_miss` cycles) exceeds the epoch savings estimate
//!    `hits × (avg miss front-end − avg hit front-end)`; every
//!    `probe` epochs, disabled functions are re-enabled to re-measure.
//! 2. **Store admission** (`StoreTighten` / `StoreLoosen`): writeback
//!    admission tightens to a per-record byte cap when the cluster
//!    footprint crosses 7/8 of capacity with eviction churn, and
//!    loosens below 5/8 (the asymmetric bounds are the hysteresis).
//! 3. **Core scaling** (`CoresUp` / `CoresDown`): the per-node active-
//!    core cap rises when the epoch p99 breaches the SLO, the burn-rate
//!    tracker is firing, or the backlog exceeds the core count; it
//!    falls when p99 sits under half the SLO with empty queues.
//! 4. **Keep-alive retuning** (`KeepAliveRetune`): when a keep-alive
//!    policy is active, each function's window is repinned to the p99
//!    of its observed idle-gap sketch (clamped to the same bounds the
//!    hybrid policy uses) whenever that estimate moves.
//!
//! All rule math is integer-only and iteration is `BTreeMap`-ordered,
//! so the decision log is bit-deterministic for a fixed input stream.

use std::collections::BTreeMap;

use ignite_cluster::keepalive::{HYBRID_MAX_WINDOW, HYBRID_MIN_OBSERVATIONS, HYBRID_MIN_WINDOW};
use ignite_cluster::{ClusterGauges, ControllerStats, Decision, PolicyHook, PolicySample};
use ignite_obs::CtrlRule;
use ignite_scope::{SloConfig, SloTracker};

use crate::online::OnlineScope;
use crate::spec::ControllerSpec;

/// Sentinel for cluster-wide decisions (no single target function).
const CLUSTER_WIDE: u32 = u32::MAX;

/// The online policy controller. See the module docs for the rules.
#[derive(Debug, Clone)]
pub struct Controller {
    spec: ControllerSpec,
    slo_cfg: SloConfig,
    scope: OnlineScope,
    tracker: SloTracker,
    next_epoch: u64,
    epoch_index: u64,
    /// Functions with replay currently disabled → epoch it was disabled.
    replay_off: BTreeMap<u32, u64>,
    store_tight: bool,
    tight_byte_cap: u64,
    /// Active-core cap per node; 0 until the first scaling decision
    /// (meaning "follow the configured core count").
    active: usize,
    last_cores_per_node: usize,
    ka_windows: BTreeMap<u32, u64>,
    prev_insertions: u64,
    prev_evictions: u64,
    decisions: Vec<Decision>,
    samples: u64,
    replay_denied: u64,
    store_denied: u64,
}

impl Controller {
    /// Creates a controller from a parsed spec.
    pub fn new(spec: ControllerSpec) -> Self {
        let slo_cfg = SloConfig {
            threshold_cycles: spec.slo_cycles,
            objective_milli: 950,
            fast_window_cycles: spec.epoch_cycles,
            slow_window_cycles: spec.epoch_cycles.saturating_mul(4),
            burn_milli: 2_000,
            min_count: spec.min_samples.max(1),
        };
        Controller {
            spec,
            slo_cfg,
            scope: OnlineScope::new(),
            tracker: SloTracker::new(),
            next_epoch: spec.epoch_cycles,
            epoch_index: 0,
            replay_off: BTreeMap::new(),
            store_tight: false,
            tight_byte_cap: 0,
            active: 0,
            last_cores_per_node: 0,
            ka_windows: BTreeMap::new(),
            prev_insertions: 0,
            prev_evictions: 0,
            decisions: Vec::new(),
            samples: 0,
            replay_denied: 0,
            store_denied: 0,
        }
    }

    fn effective_cores(&self, cores_per_node: usize) -> usize {
        if self.active == 0 {
            cores_per_node
        } else {
            self.active.clamp(self.spec.min_cores.min(cores_per_node), cores_per_node)
        }
    }

    /// One epoch boundary: drain the window, run every rule family.
    fn evaluate(&mut self, at: u64, epoch: u64, gauges: &ClusterGauges, out: &mut Vec<Decision>) {
        let epoch_samples = self.scope.epoch_samples();
        let epoch_p99 = self.scope.epoch_quantile(99);
        let windows = self.scope.drain_epoch();
        let insertions = gauges.insertions - self.prev_insertions.min(gauges.insertions);
        let evictions = gauges.evictions - self.prev_evictions.min(gauges.evictions);
        self.prev_insertions = gauges.insertions;
        self.prev_evictions = gauges.evictions;
        if gauges.cores_per_node > 0 {
            self.last_cores_per_node = gauges.cores_per_node;
        }
        let mut push = |rule, function, value, observed, threshold| {
            out.push(Decision { at, epoch, rule, function, value, observed, threshold });
        };

        // Rule 1b: periodic probe — give replay back to re-measure.
        // Clock-driven, so it runs even on quiet epochs.
        if epoch > 0 && epoch.is_multiple_of(self.spec.probe_epochs) {
            let probe: Vec<u32> = self
                .replay_off
                .iter()
                .filter(|&(_, &since)| since < epoch)
                .map(|(&f, _)| f)
                .collect();
            for f in probe {
                self.replay_off.remove(&f);
                push(CtrlRule::ReplayOn, f, 1, epoch, self.spec.probe_epochs);
            }
        }
        // Quiet epoch with no backlog: keep the clock ticking, but the
        // evidence-driven rules have nothing to act on.
        if epoch_samples == 0 && gauges.queued == 0 {
            return;
        }

        // Rule 1a: replay off, per function with enough epoch evidence.
        for (&f, w) in &windows {
            if w.invocations < self.spec.min_samples || self.replay_off.contains_key(&f) {
                continue;
            }
            let Some(saved) = w.replay_savings() else { continue };
            if w.replay_cost_cycles > saved {
                self.replay_off.insert(f, epoch);
                push(CtrlRule::ReplayOff, f, 0, w.replay_cost_cycles, saved);
            }
        }

        // Rule 2: store admission under footprint pressure.
        if gauges.capacity_bytes > 0 {
            let cap = gauges.capacity_bytes;
            let hi = cap - cap / 8; // 7/8
            let lo = cap / 2 + cap / 8; // 5/8
            if !self.store_tight && gauges.footprint_bytes >= hi && evictions > insertions / 2 {
                self.store_tight = true;
                self.tight_byte_cap = cap / 64;
                push(
                    CtrlRule::StoreTighten,
                    CLUSTER_WIDE,
                    self.tight_byte_cap,
                    gauges.footprint_bytes,
                    hi,
                );
            } else if self.store_tight && gauges.footprint_bytes < lo {
                self.store_tight = false;
                push(CtrlRule::StoreLoosen, CLUSTER_WIDE, 0, gauges.footprint_bytes, lo);
            }
        }

        // Rule 3: active-core scaling against the latency SLO.
        let cpn = self.last_cores_per_node;
        if cpn > 0 {
            let cur = self.effective_cores(cpn);
            let overloaded = (epoch_samples >= self.spec.min_samples
                && epoch_p99 > self.spec.slo_cycles)
                || self.tracker.firing()
                || gauges.queued > gauges.total_cores;
            let idle = epoch_samples >= self.spec.min_samples
                && epoch_p99.saturating_mul(2) < self.spec.slo_cycles
                && gauges.queued == 0
                && !self.tracker.firing();
            if overloaded && cur < cpn {
                self.active = cur + 1;
                push(
                    CtrlRule::CoresUp,
                    CLUSTER_WIDE,
                    self.active as u64,
                    epoch_p99,
                    self.spec.slo_cycles,
                );
            } else if idle && cur > self.spec.min_cores {
                self.active = cur - 1;
                push(
                    CtrlRule::CoresDown,
                    CLUSTER_WIDE,
                    self.active as u64,
                    epoch_p99,
                    self.spec.slo_cycles,
                );
            }
        }

        // Rule 4: keep-alive retuning from the idle-gap sketches.
        if gauges.keepalive_enabled {
            let mut retunes: Vec<(u32, u64, u64)> = Vec::new();
            for (&f, gaps) in self.scope.idle_gaps() {
                if gaps.count() < HYBRID_MIN_OBSERVATIONS {
                    continue;
                }
                let p99 = gaps.quantile(99);
                let window = p99.clamp(HYBRID_MIN_WINDOW, HYBRID_MAX_WINDOW);
                if self.ka_windows.get(&f) != Some(&window) {
                    retunes.push((f, window, p99));
                }
            }
            for (f, window, p99) in retunes {
                let prev = self.ka_windows.insert(f, window).unwrap_or(0);
                push(CtrlRule::KeepAliveRetune, f, window, p99, prev);
            }
        }
    }
}

impl PolicyHook for Controller {
    fn enabled(&self) -> bool {
        true
    }

    fn observe(&mut self, sample: &PolicySample) {
        self.samples += 1;
        if sample.replay_suppressed {
            self.replay_denied += 1;
        }
        // Transitions surface through the scope layer's alert track;
        // the controller only consumes the firing state.
        let latency = sample.cycles.latency_cycles;
        let _ = self.tracker.observe(&self.slo_cfg, sample.completion, latency);
        self.scope.observe(sample);
    }

    fn epoch_due(&self, now: u64) -> bool {
        now >= self.next_epoch
    }

    fn on_epoch(&mut self, now: u64, gauges: &ClusterGauges) -> Vec<Decision> {
        let mut out = Vec::new();
        while self.next_epoch <= now {
            let at = self.next_epoch;
            let epoch = self.epoch_index;
            self.evaluate(at, epoch, gauges, &mut out);
            self.epoch_index += 1;
            self.next_epoch += self.spec.epoch_cycles;
        }
        self.decisions.extend_from_slice(&out);
        out
    }

    fn replay_admitted(&mut self, function: u32) -> bool {
        !self.replay_off.contains_key(&function)
    }

    fn store_admitted(&mut self, _function: u32, bytes: u64) -> bool {
        if self.store_tight && bytes > self.tight_byte_cap {
            self.store_denied += 1;
            return false;
        }
        true
    }

    fn active_cores(&self, cores_per_node: usize) -> usize {
        self.effective_cores(cores_per_node)
    }

    fn keepalive_window(&self, function: u32) -> Option<u64> {
        self.ka_windows.get(&function).copied()
    }

    fn finish(&mut self, _makespan: u64) -> Option<ControllerStats> {
        let final_active_cores = if self.active == 0 {
            self.last_cores_per_node as u64
        } else {
            self.effective_cores(self.last_cores_per_node.max(1)) as u64
        };
        Some(ControllerStats {
            epochs: self.epoch_index,
            decisions: std::mem::take(&mut self.decisions),
            samples: self.samples,
            replay_denied: self.replay_denied,
            store_denied: self.store_denied,
            final_active_cores,
        })
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

    fn gauges(cores_per_node: usize) -> ClusterGauges {
        ClusterGauges {
            busy_cores: 0,
            total_cores: cores_per_node,
            cores_per_node,
            queued: 0,
            footprint_bytes: 0,
            capacity_bytes: 1 << 20,
            insertions: 0,
            evictions: 0,
            keepalive_enabled: false,
        }
    }

    #[test]
    fn replay_disables_on_cost_and_probe_reenables() {
        let spec = ControllerSpec { min_samples: 4, ..ControllerSpec::default() };
        let mut c = Controller::new(spec);
        // Function 7: every invocation misses the store and pays heavy
        // store_miss cycles — replay costs, saves nothing.
        for i in 0..8u64 {
            let mut s = sample(7, 1_000 + i * 100, 5_000);
            s.cycles.store_miss_cycles = 3_000;
            s.cycles.execution_cycles = 2_000;
            c.observe(&s);
        }
        assert!(c.replay_admitted(7));
        assert!(c.epoch_due(spec.epoch_cycles));
        let decisions = c.on_epoch(spec.epoch_cycles, &gauges(2));
        assert!(decisions.iter().any(|d| d.rule == CtrlRule::ReplayOff && d.function == 7));
        assert!(!c.replay_admitted(7));
        // Probe epoch (epoch index 4 at boundary 5 * epoch): replay
        // returns so the controller can re-measure.
        let probe_at = spec.epoch_cycles * 5;
        let decisions = c.on_epoch(probe_at, &gauges(2));
        assert!(decisions.iter().any(|d| d.rule == CtrlRule::ReplayOn && d.function == 7));
        assert!(c.replay_admitted(7));
    }

    #[test]
    fn store_tightens_under_pressure_and_loosens_back() {
        let mut c = Controller::new(ControllerSpec::default());
        c.observe(&sample(0, 100, 10));
        let mut g = gauges(2);
        g.footprint_bytes = g.capacity_bytes - g.capacity_bytes / 16; // > 7/8
        g.insertions = 100;
        g.evictions = 90;
        let decisions = c.on_epoch(c.spec.epoch_cycles, &g);
        assert!(decisions.iter().any(|d| d.rule == CtrlRule::StoreTighten));
        let cap = g.capacity_bytes / 64;
        assert!(c.store_admitted(0, cap));
        assert!(!c.store_admitted(0, cap + 1));
        // Pressure subsides below 5/8: admission loosens.
        c.observe(&sample(0, c.spec.epoch_cycles + 100, 10));
        g.footprint_bytes = g.capacity_bytes / 2;
        let decisions = c.on_epoch(c.spec.epoch_cycles * 2, &g);
        assert!(decisions.iter().any(|d| d.rule == CtrlRule::StoreLoosen));
        assert!(c.store_admitted(0, u64::MAX));
        let stats = c.finish(0).unwrap();
        assert_eq!(stats.store_denied, 1);
    }

    #[test]
    fn cores_scale_up_on_slo_breach_and_down_when_idle() {
        let spec =
            ControllerSpec { min_samples: 4, slo_cycles: 1_000, ..ControllerSpec::default() };
        let mut c = Controller::new(spec);
        for i in 0..8u64 {
            c.observe(&sample(0, 500 + i, 5_000)); // p99 far over SLO
        }
        let decisions = c.on_epoch(spec.epoch_cycles, &gauges(4));
        // Burn-rate tracker fires too; the cap still only rises by one
        // per epoch, starting from the full core count — so the first
        // breach cannot raise it (already at max).
        assert!(decisions.iter().all(|d| d.rule != CtrlRule::CoresUp));
        // Fast traffic well under the SLO with empty queues: scale down.
        for epoch in 1..4u64 {
            for i in 0..8u64 {
                c.observe(&sample(0, epoch * spec.epoch_cycles + 20_000 + i * 100, 100));
            }
            c.on_epoch((epoch + 1) * spec.epoch_cycles, &gauges(4));
        }
        let stats = c.finish(0).unwrap();
        let downs = stats.fires(CtrlRule::CoresDown);
        assert!(downs >= 1, "expected scale-down, log: {:?}", stats.decisions);
        assert_eq!(stats.final_active_cores, 4 - downs);
        // And a fresh breach scales back up.
        let mut c2 = Controller::new(spec);
        for i in 0..8u64 {
            c2.observe(&sample(0, 20_000 + i * 100, 100));
        }
        c2.on_epoch(spec.epoch_cycles, &gauges(4));
        assert_eq!(c2.active_cores(4), 3);
        for i in 0..8u64 {
            c2.observe(&sample(0, spec.epoch_cycles + 20_000 + i * 100, 50_000));
        }
        let decisions = c2.on_epoch(spec.epoch_cycles * 2, &gauges(4));
        assert!(decisions.iter().any(|d| d.rule == CtrlRule::CoresUp));
        assert_eq!(c2.active_cores(4), 4);
    }

    #[test]
    fn keepalive_retunes_from_idle_gap_p99() {
        let spec = ControllerSpec::default();
        let mut c = Controller::new(spec);
        // Function 2 completes every 5_000 cycles: idle-gap p99 ≈ 5_000.
        for i in 0..6u64 {
            c.observe(&sample(2, (i + 1) * 5_000, 100));
        }
        let mut g = gauges(2);
        g.keepalive_enabled = true;
        let decisions = c.on_epoch(spec.epoch_cycles, &g);
        let retune = decisions
            .iter()
            .find(|d| d.rule == CtrlRule::KeepAliveRetune && d.function == 2)
            .expect("retune decision");
        assert_eq!(Some(retune.value), c.keepalive_window(2));
        assert!(retune.value >= 5_000 && retune.value <= 5_000 + 5_000 / 64);
        // Stable gaps → no second decision for the same window.
        for i in 6..12u64 {
            c.observe(&sample(2, (i + 1) * 5_000, 100));
        }
        let decisions = c.on_epoch(spec.epoch_cycles * 2, &g);
        assert!(decisions.iter().all(|d| d.rule != CtrlRule::KeepAliveRetune));
        // Without keep-alive the rule never fires.
        let mut c2 = Controller::new(spec);
        for i in 0..6u64 {
            c2.observe(&sample(2, (i + 1) * 5_000, 100));
        }
        let decisions = c2.on_epoch(spec.epoch_cycles, &gauges(2));
        assert!(decisions.iter().all(|d| d.rule != CtrlRule::KeepAliveRetune));
        assert_eq!(c2.keepalive_window(2), None);
    }

    #[test]
    fn quiet_epochs_tick_without_decisions() {
        let spec = ControllerSpec::default();
        let mut c = Controller::new(spec);
        // Ten epochs pass with no traffic at all.
        let decisions = c.on_epoch(spec.epoch_cycles * 10, &gauges(2));
        assert!(decisions.is_empty());
        let stats = c.finish(0).unwrap();
        assert_eq!(stats.epochs, 10);
        assert!(stats.decisions.is_empty());
    }

    #[test]
    fn controller_is_deterministic_and_log_matches_fire_counts() {
        let build = || {
            let spec =
                ControllerSpec { min_samples: 2, slo_cycles: 2_000, ..ControllerSpec::default() };
            let mut c = Controller::new(spec);
            let mut g = gauges(4);
            g.keepalive_enabled = true;
            for epoch in 0..6u64 {
                for i in 0..5u64 {
                    let mut s = sample(
                        (i % 3) as u32,
                        epoch * spec.epoch_cycles + i * 9_000 + 1,
                        if epoch % 2 == 0 { 4_000 } else { 300 },
                    );
                    s.cycles.store_miss_cycles = 2_000;
                    c.observe(&s);
                }
                g.footprint_bytes =
                    if epoch % 2 == 0 { g.capacity_bytes } else { g.capacity_bytes / 4 };
                g.insertions += 50;
                g.evictions += 40;
                c.on_epoch((epoch + 1) * spec.epoch_cycles, &g);
            }
            c.finish(123).unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(!a.decisions.is_empty());
        let total: u64 = CtrlRule::ALL.iter().map(|&r| a.fires(r)).sum();
        assert_eq!(total, a.decisions.len() as u64);
        assert_eq!(a.samples, 30);
    }
}

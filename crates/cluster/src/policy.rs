//! The policy seam: every knob the simulator consults at runtime.
//!
//! `cluster::sim` routes its four actuation points — replay admission,
//! store-writeback admission, the schedulable-core mask, and the
//! keep-alive window — through a [`PolicyHook`]. The default
//! [`StaticPolicy`] answers every query with the configured constant
//! and reports [`PolicyHook::enabled`]` == false`, so the monomorphized
//! static path compiles to exactly the pre-seam code (the same
//! zero-cost contract [`ignite_obs::EventSink`] uses): committed golden
//! outputs do not move. An online controller (`ignite-control`)
//! implements the same trait to close the loop from scope attribution
//! back into policy.
//!
//! The contract mirrors the sink contract:
//!
//! * Emission/actuation sites are guarded by [`PolicyHook::enabled`];
//!   a disabled policy's sites dead-code-eliminate completely.
//! * [`PolicyHook::observe`] receives one [`PolicySample`] per
//!   completed invocation (the same [`Attribution`] record the scope
//!   layer folds) and must be O(1).
//! * [`PolicyHook::on_epoch`] runs at epoch boundaries only (gated by
//!   [`PolicyHook::epoch_due`] so the simulator never assembles
//!   [`ClusterGauges`] off-epoch) and returns the decisions taken, each
//!   of which the simulator mirrors onto the `Track::Controller` trace
//!   track.

use ignite_obs::{Attribution, CtrlRule};

/// One completed invocation, folded into the policy online: its
/// attribution record plus the store outcome the components were
/// attributed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicySample {
    /// Function index.
    pub function: u32,
    /// Completion timestamp (cluster cycles).
    pub completion: u64,
    /// The latency and the seven components that tile it.
    pub cycles: Attribution,
    /// Whether the metadata store served this invocation.
    pub store_hit: bool,
    /// Whether this policy suppressed record/replay for the invocation.
    pub replay_suppressed: bool,
}

/// Cluster-wide state snapshot assembled for an epoch evaluation.
/// Store counters are cumulative (the policy diffs them per epoch);
/// core/queue fields are instantaneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterGauges {
    /// Cores currently executing an invocation, across all nodes.
    pub busy_cores: usize,
    /// Total cores in the cluster.
    pub total_cores: usize,
    /// Cores per node (the unit [`PolicyHook::active_cores`] masks).
    pub cores_per_node: usize,
    /// Arrivals queued and waiting for a core, across all nodes.
    pub queued: usize,
    /// Resident metadata bytes across all node stores.
    pub footprint_bytes: u64,
    /// Total store capacity across all node stores.
    pub capacity_bytes: u64,
    /// Cumulative successful store insertions.
    pub insertions: u64,
    /// Cumulative store evictions.
    pub evictions: u64,
    /// Whether a keep-alive policy is active (retune decisions are
    /// meaningless without one).
    pub keepalive_enabled: bool,
}

/// One controller decision: the cause snapshot (`observed` vs
/// `threshold`), the rule that fired, and the actuated `value`.
/// `function` is `u32::MAX` for cluster-wide decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decision {
    /// Epoch-boundary cycle the decision actuated at.
    pub at: u64,
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Which rule fired.
    pub rule: CtrlRule,
    /// Target function, or `u32::MAX` for cluster-wide rules.
    pub function: u32,
    /// New setting: keep-alive window cycles, active core count,
    /// admission byte cap, or 0/1 for replay toggles.
    pub value: u64,
    /// The observed input that triggered the rule.
    pub observed: u64,
    /// The bound `observed` was compared against.
    pub threshold: u64,
}

/// End-of-run controller summary surfaced as
/// `ClusterOutcome::controller`, the report's `controller` section and
/// so its `ignite_cluster_controller_*` Prometheus gauges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Epoch evaluations completed.
    pub epochs: u64,
    /// Every decision taken, in actuation order — the audit trail.
    pub decisions: Vec<Decision>,
    /// Completed invocations folded through [`PolicyHook::observe`].
    pub samples: u64,
    /// Invocations dispatched with record/replay suppressed.
    pub replay_denied: u64,
    /// Completed writebacks denied store admission.
    pub store_denied: u64,
    /// Active-core cap per node at end of run.
    pub final_active_cores: u64,
}

impl ControllerStats {
    /// Decisions taken by `rule`.
    pub fn fires(&self, rule: CtrlRule) -> u64 {
        self.decisions.iter().filter(|d| d.rule == rule).count() as u64
    }
}

/// The simulator's policy interface. Defaults answer every query with
/// the static (pre-seam) behavior, so an implementation overrides only
/// the axes it actuates.
pub trait PolicyHook {
    /// Whether actuation sites should consult this policy at all. Must
    /// be trivially inlinable; the disabled path must dead-code-
    /// eliminate completely (see [`StaticPolicy`]).
    fn enabled(&self) -> bool;

    /// Folds one completed invocation. Called only when enabled.
    fn observe(&mut self, _sample: &PolicySample) {}

    /// Whether `now` has crossed the next epoch boundary. Guards
    /// [`PolicyHook::on_epoch`] so gauges are assembled only on epochs.
    fn epoch_due(&self, _now: u64) -> bool {
        false
    }

    /// Evaluates every epoch boundary at or before `now` and returns
    /// the decisions actuated (usually empty). Called only when
    /// [`PolicyHook::epoch_due`].
    fn on_epoch(&mut self, _now: u64, _gauges: &ClusterGauges) -> Vec<Decision> {
        Vec::new()
    }

    /// Whether `function` may use record/replay for this dispatch.
    /// Denial skips the store fetch entirely (no miss is counted) and
    /// the invocation runs cold; its front-end stalls attribute to
    /// `cold_frontend`.
    fn replay_admitted(&mut self, _function: u32) -> bool {
        true
    }

    /// Whether a completed recording of `bytes` may be written back to
    /// the node store.
    fn store_admitted(&mut self, _function: u32, _bytes: u64) -> bool {
        true
    }

    /// Cap on schedulable cores per node (clamped to
    /// `1..=cores_per_node` by the caller).
    fn active_cores(&self, cores_per_node: usize) -> usize {
        cores_per_node
    }

    /// Keep-alive window override for `function`, in cycles.
    fn keepalive_window(&self, _function: u32) -> Option<u64> {
        None
    }

    /// Drains the controller summary at end of run.
    fn finish(&mut self, _makespan: u64) -> Option<ControllerStats> {
        None
    }
}

/// The zero-cost static policy: `enabled()` is a constant `false`, so
/// monomorphized actuation sites vanish entirely and the simulator runs
/// the exact pre-seam code.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPolicy;

impl PolicyHook for StaticPolicy {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

impl<P: PolicyHook + ?Sized> PolicyHook for &mut P {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn observe(&mut self, sample: &PolicySample) {
        (**self).observe(sample);
    }

    #[inline]
    fn epoch_due(&self, now: u64) -> bool {
        (**self).epoch_due(now)
    }

    #[inline]
    fn on_epoch(&mut self, now: u64, gauges: &ClusterGauges) -> Vec<Decision> {
        (**self).on_epoch(now, gauges)
    }

    #[inline]
    fn replay_admitted(&mut self, function: u32) -> bool {
        (**self).replay_admitted(function)
    }

    #[inline]
    fn store_admitted(&mut self, function: u32, bytes: u64) -> bool {
        (**self).store_admitted(function, bytes)
    }

    #[inline]
    fn active_cores(&self, cores_per_node: usize) -> usize {
        (**self).active_cores(cores_per_node)
    }

    #[inline]
    fn keepalive_window(&self, function: u32) -> Option<u64> {
        (**self).keepalive_window(function)
    }

    #[inline]
    fn finish(&mut self, makespan: u64) -> Option<ControllerStats> {
        (**self).finish(makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_is_disabled_and_permissive() {
        let mut p = StaticPolicy;
        assert!(!p.enabled());
        assert!(!p.epoch_due(u64::MAX));
        assert!(p.replay_admitted(3));
        assert!(p.store_admitted(3, 1 << 30));
        assert_eq!(p.active_cores(8), 8);
        assert_eq!(p.keepalive_window(0), None);
        assert!(p.finish(1_000).is_none());
        assert!(p.on_epoch(0, &ClusterGauges::default()).is_empty());
    }

    #[test]
    fn stats_count_fires_per_rule() {
        let d = |rule| Decision {
            at: 100,
            epoch: 1,
            rule,
            function: u32::MAX,
            value: 2,
            observed: 10,
            threshold: 5,
        };
        let stats = ControllerStats {
            epochs: 2,
            decisions: vec![d(CtrlRule::CoresUp), d(CtrlRule::CoresUp), d(CtrlRule::ReplayOff)],
            ..ControllerStats::default()
        };
        assert_eq!(stats.fires(CtrlRule::CoresUp), 2);
        assert_eq!(stats.fires(CtrlRule::ReplayOff), 1);
        assert_eq!(stats.fires(CtrlRule::StoreTighten), 0);
        let total: u64 = CtrlRule::ALL.iter().map(|&r| stats.fires(r)).sum();
        assert_eq!(total, stats.decisions.len() as u64);
    }

    #[test]
    fn mut_ref_forwarding_preserves_policy_behavior() {
        struct AlwaysOn;
        impl PolicyHook for AlwaysOn {
            fn enabled(&self) -> bool {
                true
            }
            fn active_cores(&self, _cores_per_node: usize) -> usize {
                1
            }
        }
        let mut p = AlwaysOn;
        let r = &mut p;
        assert!(r.enabled());
        assert_eq!(r.active_cores(8), 1);
        assert!(r.replay_admitted(0));
    }
}

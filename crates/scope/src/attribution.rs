//! The [`ScopeAnalyzer`] tee sink: exact per-function latency
//! attribution folded live off the event stream.

use std::collections::BTreeMap;

use ignite_obs::{Attribution, Event, EventKind, EventSink, QuantileSketch, Track};

use crate::slo::{SloConfig, SloTracker, Transition};

/// Attribution folded over a set of invocations: one function's, or the
/// whole run's. Merging two folds gives exactly the fold of both sets,
/// so the report's totals row is the merge of its function rows.
#[derive(Debug, Clone, Default)]
pub struct ScopeTotals {
    /// Invocations attributed.
    pub invocations: u64,
    /// Summed attribution; the components still tile the latency.
    pub cycles: Attribution,
    /// Streaming latency quantiles.
    pub latency: QuantileSketch,
    /// SLO violations (0 when no SLO is configured).
    pub violations: u64,
    /// Alert fire transitions.
    pub alert_fires: u64,
    /// Alert resolve transitions.
    pub alert_resolves: u64,
}

impl ScopeTotals {
    /// Folds another set's totals into this one.
    pub(crate) fn merge(&mut self, other: &ScopeTotals) {
        self.invocations += other.invocations;
        self.cycles.add(&other.cycles);
        self.latency.merge(&other.latency);
        self.violations += other.violations;
        self.alert_fires += other.alert_fires;
        self.alert_resolves += other.alert_resolves;
    }
}

/// An [`EventSink`] that forwards every event to an inner sink while
/// folding `Attribution` events into per-function [`ScopeTotals`], and —
/// when an [`SloConfig`] is present — driving a burn-rate tracker per
/// function whose alert transitions are emitted into the inner sink on
/// [`Track::Alerts`]. Its state grows with the number of functions, not
/// of invocations.
///
/// Wrap a `TraceBuffer` to get both a trace and attribution, or a
/// `NullSink` for attribution alone. The analyzer itself is always
/// enabled; the inner sink's own `enabled()` still gates forwarding, so
/// wrapping `NullSink` costs no buffering.
#[derive(Debug, Default)]
pub struct ScopeAnalyzer<S: EventSink> {
    inner: S,
    slo: Option<SloConfig>,
    per_function: BTreeMap<u32, ScopeTotals>,
    trackers: BTreeMap<u32, SloTracker>,
}

impl<S: EventSink> ScopeAnalyzer<S> {
    /// Wraps an inner sink, with no SLO tracking.
    pub fn new(inner: S) -> Self {
        ScopeAnalyzer { inner, slo: None, per_function: BTreeMap::new(), trackers: BTreeMap::new() }
    }

    /// Enables burn-rate alerting under the given SLO.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The SLO in force, if any.
    pub fn slo(&self) -> Option<&SloConfig> {
        self.slo.as_ref()
    }

    /// Per-function folds, keyed by function index.
    pub fn per_function(&self) -> &BTreeMap<u32, ScopeTotals> {
        &self.per_function
    }

    /// Per-function burn-rate trackers, keyed by function index.
    /// Populated only when an SLO is configured; the live
    /// [`SloTracker::current_burn`] gauges feed the metrics exposition
    /// and the policy controller.
    pub fn trackers(&self) -> &BTreeMap<u32, SloTracker> {
        &self.trackers
    }

    /// Hands back the inner sink (e.g. to export the trace).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Borrows the inner sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: EventSink> EventSink for ScopeAnalyzer<S> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        if self.inner.enabled() {
            self.inner.record(event);
        }
        let EventKind::Attribution { function, cycles } = event.kind else {
            return;
        };
        debug_assert_eq!(cycles.component_sum(), cycles.latency_cycles, "components must tile");
        let agg = self.per_function.entry(function).or_default();
        agg.invocations += 1;
        agg.cycles.add(&cycles);
        agg.latency.observe(cycles.latency_cycles);
        let Some(cfg) = self.slo else { return };
        let tracker = self.trackers.entry(function).or_default();
        let transition = tracker.observe(&cfg, event.ts, cycles.latency_cycles);
        agg.violations = tracker.violations();
        let kind = match transition {
            None => return,
            Some(Transition::Fire { burn_milli }) => {
                agg.alert_fires += 1;
                EventKind::AlertFire { function, burn_milli }
            }
            Some(Transition::Resolve { burn_milli }) => {
                agg.alert_resolves += 1;
                EventKind::AlertResolve { function, burn_milli }
            }
        };
        if self.inner.enabled() {
            self.inner.record(Event { ts: event.ts, dur: 0, track: Track::Alerts, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignite_obs::{NullSink, TraceBuffer};

    fn attr_event(function: u32, ts: u64, queue: u64, exec: u64) -> Event {
        Event {
            ts,
            dur: 0,
            track: Track::Cluster,
            kind: EventKind::Attribution {
                function,
                cycles: Attribution {
                    queue_cycles: queue,
                    execution_cycles: exec,
                    latency_cycles: queue + exec,
                    ..Attribution::default()
                },
            },
        }
    }

    #[test]
    fn aggregates_per_function() {
        let mut an = ScopeAnalyzer::new(NullSink);
        an.record(attr_event(0, 100, 10, 40));
        an.record(attr_event(1, 200, 0, 70));
        an.record(attr_event(0, 300, 30, 20));
        let f0 = &an.per_function()[&0];
        assert_eq!(f0.invocations, 2);
        assert_eq!(f0.cycles.queue_cycles, 40);
        assert_eq!(f0.cycles.execution_cycles, 60);
        assert_eq!(f0.cycles.latency_cycles, 100);
        assert_eq!(f0.latency.count(), 2);
        let mut all = ScopeTotals::default();
        for f in an.per_function().values() {
            assert_eq!(f.cycles.component_sum(), f.cycles.latency_cycles);
            all.merge(f);
        }
        assert_eq!(all.invocations, 3);
        assert_eq!(all.latency.count(), 3);
        assert_eq!(all.cycles.latency_cycles, 170);
    }

    #[test]
    fn non_attribution_events_pass_through_untouched() {
        let mut an = ScopeAnalyzer::new(TraceBuffer::new(16));
        let ev = Event {
            ts: 5,
            dur: 0,
            track: Track::Cluster,
            kind: EventKind::Arrival { function: 3 },
        };
        an.record(ev);
        assert!(an.per_function().is_empty());
        let buf = an.into_inner();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.iter().next(), Some(&ev));
    }

    #[test]
    fn alert_transitions_reach_the_inner_sink_on_the_alerts_track() {
        let slo = SloConfig {
            threshold_cycles: 50,
            objective_milli: 500,
            fast_window_cycles: 1_000,
            slow_window_cycles: 4_000,
            burn_milli: 2_000,
            min_count: 2,
        };
        let mut an = ScopeAnalyzer::new(TraceBuffer::new(64)).with_slo(slo);
        for i in 0..4u64 {
            an.record(attr_event(0, 100 * (i + 1), 0, 500));
        }
        assert!(an.per_function()[&0].alert_fires >= 1);
        assert_eq!(an.per_function()[&0].violations, 4);
        let buf = an.into_inner();
        let fires: Vec<&Event> =
            buf.iter().filter(|e| matches!(e.kind, EventKind::AlertFire { .. })).collect();
        assert!(!fires.is_empty());
        assert!(fires.iter().all(|e| e.track == Track::Alerts));
    }

    #[test]
    fn null_inner_sink_still_aggregates() {
        let mut an = ScopeAnalyzer::new(NullSink).with_slo(SloConfig {
            min_count: 1,
            threshold_cycles: 1,
            ..SloConfig::default()
        });
        an.record(attr_event(7, 10, 0, 100));
        assert_eq!(an.per_function()[&7].violations, 1);
    }
}

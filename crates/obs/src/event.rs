//! The event model: what instrumented code emits, and where it goes.
//!
//! Events are small `Copy` records stamped with a cluster-clock
//! timestamp and a [`Track`] (timeline row). Instrumented code is
//! generic over [`EventSink`] and checks [`EventSink::enabled`] before
//! doing any work to assemble an event, so the disabled path costs
//! nothing (see the crate docs for the zero-cost contract).

use std::collections::VecDeque;

/// Timeline row an event belongs to. Tracks map to Chrome trace `tid`s:
/// the cluster queue is 0, the metadata store is 1, core `i` is `2 + i`,
/// and the SLO alert track sits above every possible core tid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Cluster-level DES transitions (arrivals joining the queue).
    Cluster,
    /// Node metadata store traffic (hits, misses, evictions).
    Store,
    /// Per-core execution: dispatches, invocation spans, phases.
    Core(u32),
    /// SLO burn-rate alert lifecycle (fire/resolve instants).
    Alerts,
    /// Chaos lifecycle: crashes, restores, retries, degrades, breaker
    /// transitions (`ignite-chaos`).
    Chaos,
    /// Node `i`'s metadata store traffic in a multi-node run (a 1-node
    /// run keeps using [`Track::Store`], preserving committed traces).
    NodeStore(u32),
    /// Control-plane decision lifecycle: every policy actuation the
    /// online controller takes, with its cause snapshot
    /// (`ignite-control`).
    Controller,
}

impl Track {
    /// Chrome trace thread id for this track.
    pub fn tid(self) -> u64 {
        match self {
            Track::Cluster => 0,
            Track::Store => 1,
            Track::Core(i) => 2 + u64::from(i),
            Track::Alerts => 3 + u64::from(u32::MAX),
            Track::Chaos => 4 + u64::from(u32::MAX),
            Track::NodeStore(n) => 5 + u64::from(u32::MAX) + u64::from(n),
            // Above every possible NodeStore tid (5 + 2 * (2^32 - 1)).
            Track::Controller => 6 + 2 * u64::from(u32::MAX),
        }
    }

    /// Human-readable track label for trace viewers.
    pub fn label(self) -> String {
        match self {
            Track::Cluster => "queue".to_string(),
            Track::Store => "store".to_string(),
            Track::Core(i) => format!("core{i}"),
            Track::Alerts => "alerts".to_string(),
            Track::Chaos => "chaos".to_string(),
            Track::NodeStore(n) => format!("node{n}-store"),
            Track::Controller => "controller".to_string(),
        }
    }
}

/// Why an invocation completed degraded (cold, without replay) instead
/// of warm. Each reason gets its own stable event name so traces and
/// counters distinguish infrastructure faults from data faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradeReason {
    /// The metadata store was inside an unavailability window.
    StoreUnavailable,
    /// Fetched metadata failed validation (undecodable corruption).
    Corrupt,
    /// The fetched region was lost wholesale.
    Loss,
    /// The function's circuit breaker was open: record/replay bypassed.
    BreakerOpen,
}

impl DegradeReason {
    /// Stable event name for this reason.
    pub fn name(self) -> &'static str {
        match self {
            DegradeReason::StoreUnavailable => "degraded-unavailable",
            DegradeReason::Corrupt => "degraded-corrupt",
            DegradeReason::Loss => "degraded-loss",
            DegradeReason::BreakerOpen => "degraded-breaker",
        }
    }
}

/// Which control-plane rule fired. Each rule gets its own stable event
/// name so traces and counters distinguish the four actuation axes
/// (replay admission, store admission, core scaling, keep-alive
/// retuning) without parsing args.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CtrlRule {
    /// Record/replay disabled for a function: attributed
    /// `store_miss + dram` cycles exceeded the replayed savings.
    #[default]
    ReplayOff,
    /// A periodic probe re-enabled record/replay to re-measure.
    ReplayOn,
    /// Store admission tightened under footprint/eviction pressure.
    StoreTighten,
    /// Footprint pressure eased; admission re-opened.
    StoreLoosen,
    /// Active cores scaled up against the latency SLO.
    CoresUp,
    /// Active cores scaled down (latency slack + idle capacity).
    CoresDown,
    /// A function's keep-alive window retuned from its observed
    /// idle-gap histogram.
    KeepAliveRetune,
}

impl CtrlRule {
    /// Every rule, in stable serialization order.
    pub const ALL: [CtrlRule; 7] = [
        CtrlRule::ReplayOff,
        CtrlRule::ReplayOn,
        CtrlRule::StoreTighten,
        CtrlRule::StoreLoosen,
        CtrlRule::CoresUp,
        CtrlRule::CoresDown,
        CtrlRule::KeepAliveRetune,
    ];

    /// Stable event name for this rule.
    pub fn name(self) -> &'static str {
        match self {
            CtrlRule::ReplayOff => "ctrl-replay-off",
            CtrlRule::ReplayOn => "ctrl-replay-on",
            CtrlRule::StoreTighten => "ctrl-store-tighten",
            CtrlRule::StoreLoosen => "ctrl-store-loosen",
            CtrlRule::CoresUp => "ctrl-cores-up",
            CtrlRule::CoresDown => "ctrl-cores-down",
            CtrlRule::KeepAliveRetune => "ctrl-keepalive-retune",
        }
    }

    /// Stable snake_case key for report sections and metric labels.
    pub fn key(self) -> &'static str {
        match self {
            CtrlRule::ReplayOff => "replay_off",
            CtrlRule::ReplayOn => "replay_on",
            CtrlRule::StoreTighten => "store_tighten",
            CtrlRule::StoreLoosen => "store_loosen",
            CtrlRule::CoresUp => "cores_up",
            CtrlRule::CoresDown => "cores_down",
            CtrlRule::KeepAliveRetune => "keepalive_retune",
        }
    }
}

/// Why an invocation was dropped (the only two exits besides
/// completion — the `ignite-cluster-v2` conservation law).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// Its end-to-end deadline expired before it could be served.
    Deadline,
    /// It exhausted the retry budget.
    RetriesExhausted,
}

impl DropReason {
    /// Stable event name for this reason.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Deadline => "drop-deadline",
            DropReason::RetriesExhausted => "drop-retries",
        }
    }
}

/// Top-Down cycle-attribution phase (mirrors
/// `ignite_engine::topdown::Category` without depending on the engine —
/// the dependency points the other way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Useful retirement.
    Retiring,
    /// Front-end (fetch) stalls — the cycles Ignite attacks.
    FetchBound,
    /// Wrong-path work squashed on resteer.
    BadSpeculation,
    /// Back-end (data) stalls.
    BackendBound,
}

impl Phase {
    /// Stable event name for this phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Retiring => "retiring",
            Phase::FetchBound => "fetch-bound",
            Phase::BadSpeculation => "bad-speculation",
            Phase::BackendBound => "backend-bound",
        }
    }
}

/// One completed invocation's latency, split into seven causal
/// components that sum *exactly* to `latency_cycles` (the tested scope
/// invariant). The simulator builds it once per completion; the trace,
/// the policy and every scope report read this one record, and a sum of
/// records ([`Attribution::add`]) keeps the invariant.
///
/// `retry_cycles` and `degraded_cycles` are zero whenever chaos is off,
/// preserving the five-component decomposition of chaos-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Arrival → dispatch wait.
    pub queue_cycles: u64,
    /// Cycles lost to failed attempts and backoff waits.
    pub retry_cycles: u64,
    /// Record/replay metadata DRAM transfer.
    pub dram_cycles: u64,
    /// Cold front-end stalls: after a store hit, with Ignite off, or
    /// with replay suppressed by policy.
    pub cold_frontend_cycles: u64,
    /// Front-end stalls re-paid because the store missed and Ignite had
    /// to re-record.
    pub store_miss_cycles: u64,
    /// Front-end stalls paid because chaos degraded replay away.
    pub degraded_cycles: u64,
    /// Steady-state execution.
    pub execution_cycles: u64,
    /// End-to-end latency, arrival → completion.
    pub latency_cycles: u64,
}

impl Attribution {
    /// Sum of the seven components; equals `latency_cycles` by the
    /// attribution invariant.
    pub fn component_sum(&self) -> u64 {
        self.queue_cycles
            + self.retry_cycles
            + self.dram_cycles
            + self.cold_frontend_cycles
            + self.store_miss_cycles
            + self.degraded_cycles
            + self.execution_cycles
    }

    /// Adds `other` field by field: the attribution of both sets of
    /// invocations together.
    pub fn add(&mut self, other: &Attribution) {
        for ((_, sum), (_, cycles)) in self.fields_mut().into_iter().zip(other.fields()) {
            *sum += cycles;
        }
    }

    /// Every field as `(report key, cycles)`, in the order traces and
    /// reports write them: the seven components, then `latency_cycles`.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        let mut copy = *self;
        copy.fields_mut().map(|(key, cycles)| (key, *cycles))
    }

    /// [`Attribution::fields`] with each value writable, so a reader can
    /// fill a record from its report keys.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 8] {
        [
            ("queue_cycles", &mut self.queue_cycles),
            ("retry_cycles", &mut self.retry_cycles),
            ("dram_cycles", &mut self.dram_cycles),
            ("cold_frontend_cycles", &mut self.cold_frontend_cycles),
            ("store_miss_cycles", &mut self.store_miss_cycles),
            ("degraded_cycles", &mut self.degraded_cycles),
            ("execution_cycles", &mut self.execution_cycles),
            ("latency_cycles", &mut self.latency_cycles),
        ]
    }
}

/// What happened. Payload fields become `args` in the Chrome export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request joined the dispatch queue.
    Arrival { function: u32 },
    /// The cluster scheduler placed an arrival on a node (multi-node
    /// runs only; a 1-node run has no placement decision to record).
    Routed { function: u32, node: u32 },
    /// A queued request was assigned a free core.
    Dispatch { function: u32, queue_cycles: u64 },
    /// A dispatched invocation ran to completion (span; `dur` is the
    /// service time).
    Invocation { function: u32, invocation: u64 },
    /// An invocation finished and freed its core.
    Complete { function: u32, service_cycles: u64 },
    /// The core flushed transient front-end state between tenants.
    ContextSwitch,
    /// Top-Down cycle attribution for one invocation (span).
    TopDown { phase: Phase, cycles: u64 },
    /// Ignite armed its recorder for this container.
    RecordBegin { container: u64 },
    /// Recording finished; metadata was handed to the store.
    RecordEnd { container: u64, entries: u64, bytes: u64 },
    /// Ignite began replaying restored metadata.
    ReplayBegin { container: u64, entries: u64 },
    /// Replay drained (all entries restored or dropped).
    ReplayEnd { container: u64, restored: u64 },
    /// Replay degraded: decode errors, dropped entries, or a watchdog
    /// abandon. Emitted at most once per invocation.
    ReplayDegraded { decode_errors: u64, entries_dropped: u64, watchdog_abandons: u64 },
    /// Store lookup hit; `bytes` were read back.
    StoreHit { container: u64, bytes: u64 },
    /// Store lookup missed (cold or previously evicted).
    StoreMiss { container: u64 },
    /// A resident region was evicted to make room.
    StoreEvict { container: u64, bytes: u64 },
    /// An insert was rejected (region larger than the store).
    StoreReject { container: u64, bytes: u64 },
    /// Causal latency attribution for one completed invocation (see
    /// [`Attribution`]).
    Attribution { function: u32, cycles: Attribution },
    /// A multi-window SLO burn-rate alert started firing for a
    /// function (`burn_milli` is the fast-window burn rate ×1000).
    AlertFire { function: u32, burn_milli: u64 },
    /// The alert's burn rate dropped back under the threshold.
    AlertResolve { function: u32, burn_milli: u64 },
    /// A chaos-injected crash killed `core` (and any attempt on it).
    CoreCrash { core: u32 },
    /// A crashed core finished repair and rejoined the pool.
    CoreRestore { core: u32, down_cycles: u64 },
    /// A failed attempt was rescheduled after `backoff_cycles`.
    ChaosRetry { function: u32, attempt: u32, backoff_cycles: u64 },
    /// An invocation was dropped — the terminal failure exit.
    ChaosDrop { function: u32, reason: DropReason },
    /// An invocation completed cold instead of warm (see the reason).
    Degraded { function: u32, reason: DegradeReason },
    /// A function's circuit breaker opened after `faults` consecutive
    /// replay-metadata faults.
    BreakerOpen { function: u32, faults: u32 },
    /// A half-open probe succeeded; the breaker re-closed.
    BreakerClose { function: u32 },
    /// The online controller actuated a policy change at an epoch
    /// boundary. The cause is carried inline: `observed` is the input
    /// snapshot that triggered `rule`, `threshold` the bound it was
    /// compared against, and `value` the new setting (window cycles,
    /// core count, admission byte cap, or 0/1 for replay toggles).
    /// `function` is `u32::MAX` for cluster-wide decisions.
    Decision {
        rule: CtrlRule,
        epoch: u64,
        function: u32,
        value: u64,
        observed: u64,
        threshold: u64,
    },
}

impl EventKind {
    /// Stable event name used in the Chrome export and the validator.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Arrival { .. } => "arrival",
            EventKind::Routed { .. } => "routed",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Invocation { .. } => "invocation",
            EventKind::Complete { .. } => "complete",
            EventKind::ContextSwitch => "context-switch",
            EventKind::TopDown { phase, .. } => phase.name(),
            EventKind::RecordBegin { .. } => "record-begin",
            EventKind::RecordEnd { .. } => "record-end",
            EventKind::ReplayBegin { .. } => "replay-begin",
            EventKind::ReplayEnd { .. } => "replay-end",
            EventKind::ReplayDegraded { .. } => "replay-degraded",
            EventKind::StoreHit { .. } => "store-hit",
            EventKind::StoreMiss { .. } => "store-miss",
            EventKind::StoreEvict { .. } => "store-evict",
            EventKind::StoreReject { .. } => "store-reject",
            EventKind::Attribution { .. } => "attribution",
            EventKind::AlertFire { .. } => "alert-fire",
            EventKind::AlertResolve { .. } => "alert-resolve",
            EventKind::CoreCrash { .. } => "core-crash",
            EventKind::CoreRestore { .. } => "core-restore",
            EventKind::ChaosRetry { .. } => "chaos-retry",
            EventKind::ChaosDrop { reason, .. } => reason.name(),
            EventKind::Degraded { reason, .. } => reason.name(),
            EventKind::BreakerOpen { .. } => "breaker-open",
            EventKind::BreakerClose { .. } => "breaker-close",
            EventKind::Decision { rule, .. } => rule.name(),
        }
    }

    /// Chrome trace category for this kind.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::Arrival { .. }
            | EventKind::Routed { .. }
            | EventKind::Dispatch { .. }
            | EventKind::Complete { .. }
            | EventKind::ContextSwitch => "cluster",
            EventKind::Invocation { .. } => "invocation",
            EventKind::TopDown { .. } => "topdown",
            EventKind::RecordBegin { .. }
            | EventKind::RecordEnd { .. }
            | EventKind::ReplayBegin { .. }
            | EventKind::ReplayEnd { .. }
            | EventKind::ReplayDegraded { .. } => "ignite",
            EventKind::StoreHit { .. }
            | EventKind::StoreMiss { .. }
            | EventKind::StoreEvict { .. }
            | EventKind::StoreReject { .. } => "store",
            EventKind::Attribution { .. } => "scope",
            EventKind::AlertFire { .. } | EventKind::AlertResolve { .. } => "slo",
            EventKind::CoreCrash { .. }
            | EventKind::CoreRestore { .. }
            | EventKind::ChaosRetry { .. }
            | EventKind::ChaosDrop { .. }
            | EventKind::Degraded { .. }
            | EventKind::BreakerOpen { .. }
            | EventKind::BreakerClose { .. } => "chaos",
            EventKind::Decision { .. } => "controller",
        }
    }

    /// Whether this kind renders as a duration span (`ph: "X"`) rather
    /// than an instant.
    pub fn is_span(&self) -> bool {
        matches!(self, EventKind::Invocation { .. } | EventKind::TopDown { .. })
    }
}

/// One timeline event. `ts`/`dur` are in cluster cycles; `dur` is 0 for
/// instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub ts: u64,
    pub dur: u64,
    pub track: Track,
    pub kind: EventKind,
}

/// Where instrumented code sends events.
///
/// Implementations must keep [`EventSink::enabled`] trivially inlinable:
/// emission sites are guarded by it, and the disabled path must
/// dead-code-eliminate completely.
pub trait EventSink {
    /// Whether emission sites should assemble and record events.
    fn enabled(&self) -> bool;
    /// Records one event. Only called when [`EventSink::enabled`].
    fn record(&mut self, event: Event);
}

/// The zero-cost disabled sink: `enabled()` is a constant `false`, so
/// monomorphized instrumentation vanishes entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }
}

/// Bounded ring-buffer event sink: keeps the most recent `capacity`
/// events, dropping the oldest under pressure and counting the drops so
/// exports can say the timeline is truncated.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer needs room for at least one event");
        TraceBuffer { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }
}

impl EventSink for TraceBuffer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event { ts, dur: 0, track: Track::Cluster, kind: EventKind::ContextSwitch }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut buf = TraceBuffer::new(3);
        for t in 0..5 {
            buf.record(ev(t));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let ts: Vec<u64> = buf.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
    }

    #[test]
    fn mut_ref_forwarding_preserves_enabled() {
        fn emit<S: EventSink>(mut sink: S) {
            assert!(sink.enabled());
            sink.record(ev(7));
        }
        let mut buf = TraceBuffer::new(4);
        emit(&mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn track_tids_are_disjoint() {
        let tracks = [
            Track::Cluster,
            Track::Store,
            Track::Core(0),
            Track::Core(3),
            Track::Core(u32::MAX),
            Track::Alerts,
            Track::Chaos,
            Track::NodeStore(0),
            Track::NodeStore(7),
            Track::NodeStore(u32::MAX),
            Track::Controller,
        ];
        let tids: std::collections::BTreeSet<u64> = tracks.iter().map(|t| t.tid()).collect();
        assert_eq!(tids.len(), tracks.len());
        assert_eq!(Track::Core(0).tid(), 2);
        assert!(Track::Alerts.tid() > Track::Core(u32::MAX).tid());
        assert!(Track::Chaos.tid() > Track::Alerts.tid());
        assert!(Track::NodeStore(0).tid() > Track::Chaos.tid());
        assert!(Track::Controller.tid() > Track::NodeStore(u32::MAX).tid());
        assert_eq!(Track::NodeStore(3).label(), "node3-store");
        assert_eq!(Track::Controller.label(), "controller");
    }

    #[test]
    fn chaos_event_names_encode_reasons() {
        assert_eq!(EventKind::CoreCrash { core: 1 }.name(), "core-crash");
        assert_eq!(
            EventKind::Degraded { function: 0, reason: DegradeReason::Corrupt }.name(),
            "degraded-corrupt"
        );
        assert_eq!(
            EventKind::ChaosDrop { function: 0, reason: DropReason::Deadline }.name(),
            "drop-deadline"
        );
        assert_eq!(EventKind::BreakerOpen { function: 0, faults: 5 }.category(), "chaos");
        assert!(!EventKind::ChaosRetry { function: 0, attempt: 1, backoff_cycles: 1 }.is_span());
    }

    #[test]
    fn controller_event_names_encode_rules() {
        let d = EventKind::Decision {
            rule: CtrlRule::ReplayOff,
            epoch: 3,
            function: 2,
            value: 0,
            observed: 900,
            threshold: 400,
        };
        assert_eq!(d.name(), "ctrl-replay-off");
        assert_eq!(d.category(), "controller");
        assert!(!d.is_span());
        // Names and keys are pairwise distinct across all rules.
        let names: std::collections::BTreeSet<&str> =
            CtrlRule::ALL.iter().map(|r| r.name()).collect();
        let keys: std::collections::BTreeSet<&str> =
            CtrlRule::ALL.iter().map(|r| r.key()).collect();
        assert_eq!(names.len(), CtrlRule::ALL.len());
        assert_eq!(keys.len(), CtrlRule::ALL.len());
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(EventKind::Arrival { function: 0 }.name(), "arrival");
        assert_eq!(EventKind::ContextSwitch.name(), "context-switch");
        assert_eq!(
            EventKind::TopDown { phase: Phase::FetchBound, cycles: 1 }.name(),
            "fetch-bound"
        );
        assert!(EventKind::Invocation { function: 0, invocation: 0 }.is_span());
        assert!(!EventKind::StoreMiss { container: 0 }.is_span());
    }
}

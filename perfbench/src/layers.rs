//! Outside-in host-time split of one cluster run.
//!
//! The simulator is not instrumented; instead the benchmark wraps the
//! three objects a run calls back into — the event sink, the policy and
//! the arrival source — and timestamps every callback. Each callback is
//! a boundary: the host time since the previous boundary belongs to
//! whatever the simulator was doing in between, and the time inside the
//! callback belongs to the callee. The simulator's own activity between
//! callbacks is told apart by the events it emits:
//!
//! * `Dispatch` → `ContextSwitch` is metadata staging (store fetch,
//!   chaos gates, `install_metadata`);
//! * `ContextSwitch` → the first event the engine does not emit is the
//!   engine (`run_invocation_obs`) plus writeback;
//! * everything else is the discrete-event loop (event queue, scheduler,
//!   keep-alive, accounting).
//!
//! Every interval is charged to exactly one layer, so the layers' self
//! times sum to the wall time of the run by construction.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use ignite_cluster::{ClusterGauges, ControllerStats, Decision, PolicyHook, PolicySample};
use ignite_obs::{Event, EventKind, EventSink, TraceBuffer};
use ignite_workloads::arrival::{Arrival, ArrivalSource};

/// Where host time goes during a cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The discrete-event loop, scheduler and keep-alive (the remainder).
    Des,
    /// Metadata staging: store fetch, chaos gates, metadata install.
    Stage,
    /// The front-end model plus writeback.
    Engine,
    /// The arrival source.
    Traffic,
    /// The real event sink (scope analyzer) behind the wrapper.
    Obs,
    /// The policy controller behind the wrapper.
    Control,
    /// The benchmark's own span buffer.
    Trace,
}

/// Events the engine emits from inside `run_invocation_obs`.
fn engine_event(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::TopDown { .. }
            | EventKind::RecordBegin { .. }
            | EventKind::RecordEnd { .. }
            | EventKind::ReplayBegin { .. }
            | EventKind::ReplayEnd { .. }
            | EventKind::ReplayDegraded { .. }
    )
}

/// Per-layer self time and call counts of one run.
#[derive(Debug)]
pub struct Ledger {
    start: Instant,
    last: Instant,
    state: Layer,
    self_time: [Duration; 7],
    /// Engine invocations (context switches seen).
    pub engine_calls: u64,
    /// Events the simulator emitted.
    pub events: u64,
    /// Events forwarded to an enabled sink behind the wrapper.
    pub obs_events: u64,
    /// Calls into an enabled policy.
    pub control_calls: u64,
    /// Arrivals the source yielded.
    pub arrivals: u64,
}

impl Ledger {
    /// Starts the clock; the simulator is in its event loop.
    pub fn start() -> Self {
        let now = Instant::now();
        Ledger {
            start: now,
            last: now,
            state: Layer::Des,
            self_time: [Duration::ZERO; 7],
            engine_calls: 0,
            events: 0,
            obs_events: 0,
            control_calls: 0,
            arrivals: 0,
        }
    }

    /// Charges the time since the previous boundary to `layer`.
    fn charge(&mut self, layer: Layer) {
        let now = Instant::now();
        self.self_time[layer as usize] += now - self.last;
        self.last = now;
    }

    /// Entering a callback: the simulator ran in its current state until
    /// now.
    fn boundary(&mut self) {
        self.charge(self.state);
    }

    /// Moves the simulator's state on an emitted event.
    fn transition(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Dispatch { .. } => self.state = Layer::Stage,
            EventKind::ContextSwitch => {
                self.state = Layer::Engine;
                self.engine_calls += 1;
            }
            k if self.state == Layer::Engine && !engine_event(k) => self.state = Layer::Des,
            _ => {}
        }
    }

    /// Stops the clock, charging the tail to the current state, and
    /// returns the wall time since [`Ledger::start`].
    pub fn finish(&mut self) -> Duration {
        self.boundary();
        self.last - self.start
    }

    /// Self time of one layer.
    pub fn self_time(&self, layer: Layer) -> Duration {
        self.self_time[layer as usize]
    }
}

/// Capacity of the span buffer (events): far above what one rep emits,
/// so no span is dropped.
const SPAN_EVENTS: usize = 1 << 22;

/// Event-sink wrapper: drives the ledger's state machine, keeps every
/// event in the benchmark's own span buffer, and forwards to the real
/// sink when that sink is enabled.
pub struct TimedSink<'a, S> {
    inner: S,
    ledger: &'a RefCell<Ledger>,
    spans: TraceBuffer,
}

impl<'a, S: EventSink> TimedSink<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: S, ledger: &'a RefCell<Ledger>) -> Self {
        TimedSink { inner, ledger, spans: TraceBuffer::new(SPAN_EVENTS) }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Every event the simulator emitted.
    pub fn spans(&self) -> &TraceBuffer {
        &self.spans
    }
}

impl<S: EventSink> EventSink for TimedSink<'_, S> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        let mut l = self.ledger.borrow_mut();
        l.boundary();
        l.transition(&event.kind);
        l.events += 1;
        self.spans.record(event);
        l.charge(Layer::Trace);
        if self.inner.enabled() {
            self.inner.record(event);
            l.charge(Layer::Obs);
            l.obs_events += 1;
        }
    }
}

/// Policy wrapper: times every hook the simulator calls. The simulator
/// calls hooks only when the policy is enabled, so a wrapped
/// [`ignite_cluster::StaticPolicy`] records no calls.
pub struct TimedPolicy<'a, P> {
    inner: P,
    ledger: &'a RefCell<Ledger>,
}

impl<'a, P: PolicyHook> TimedPolicy<'a, P> {
    /// Wraps `inner`.
    pub fn new(inner: P, ledger: &'a RefCell<Ledger>) -> Self {
        TimedPolicy { inner, ledger }
    }

    fn timed<T>(ledger: &RefCell<Ledger>, call: impl FnOnce() -> T) -> T {
        ledger.borrow_mut().boundary();
        let out = call();
        let mut l = ledger.borrow_mut();
        l.charge(Layer::Control);
        l.control_calls += 1;
        out
    }
}

impl<P: PolicyHook> PolicyHook for TimedPolicy<'_, P> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn observe(&mut self, sample: &PolicySample) {
        Self::timed(self.ledger, || self.inner.observe(sample));
    }

    fn epoch_due(&self, now: u64) -> bool {
        Self::timed(self.ledger, || self.inner.epoch_due(now))
    }

    fn on_epoch(&mut self, now: u64, gauges: &ClusterGauges) -> Vec<Decision> {
        Self::timed(self.ledger, || self.inner.on_epoch(now, gauges))
    }

    fn replay_admitted(&mut self, function: u32) -> bool {
        Self::timed(self.ledger, || self.inner.replay_admitted(function))
    }

    fn store_admitted(&mut self, function: u32, bytes: u64) -> bool {
        Self::timed(self.ledger, || self.inner.store_admitted(function, bytes))
    }

    fn active_cores(&self, cores_per_node: usize) -> usize {
        Self::timed(self.ledger, || self.inner.active_cores(cores_per_node))
    }

    fn keepalive_window(&self, function: u32) -> Option<u64> {
        Self::timed(self.ledger, || self.inner.keepalive_window(function))
    }

    fn finish(&mut self, makespan: u64) -> Option<ControllerStats> {
        Self::timed(self.ledger, || self.inner.finish(makespan))
    }
}

/// Arrival-source wrapper: times every pull.
pub struct TimedSource<'a, A: ?Sized> {
    inner: &'a mut A,
    ledger: &'a RefCell<Ledger>,
}

impl<'a, A: ArrivalSource + ?Sized> TimedSource<'a, A> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut A, ledger: &'a RefCell<Ledger>) -> Self {
        TimedSource { inner, ledger }
    }
}

impl<A: ArrivalSource + ?Sized> ArrivalSource for TimedSource<'_, A> {
    fn functions(&self) -> usize {
        self.inner.functions()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        self.ledger.borrow_mut().boundary();
        let next = self.inner.next_arrival();
        let mut l = self.ledger.borrow_mut();
        l.charge(Layer::Traffic);
        l.arrivals += u64::from(next.is_some());
        next
    }
}
